(** LU factorization with partial pivoting, and the dense solvers built on
    it (linear solve, inverse, determinant).

    Singularity is reported through [Singular]; callers that can tolerate
    near-singular systems should catch it and regularize. *)

exception Singular
(** Raised when a pivot is exactly zero or numerically negligible. *)

type factors = {
  lu : Mat.t;        (** Packed L (unit lower) and U factors. *)
  perm : int array;  (** Row permutation: original row of pivot row [i]. *)
  sign : float;      (** Permutation parity, [+1.] or [-1.]. *)
}

val factorize : Mat.t -> factors
(** Factor a square matrix. @raise Singular on rank deficiency. *)

val inv_factored : factors -> Mat.t
(** [inv_factored (factorize a)] is [inv a], bit for bit, without
    factorizing [a] again. *)

val det_factored : factors -> float
(** [det_factored (factorize a)] is [det a], bit for bit: the product of
    [U]'s diagonal times the permutation parity. *)

val solve : Mat.t -> Mat.t -> Mat.t
(** [solve a b] is [a^-1 * b]. @raise Singular if [a] is singular. *)

val solve_right : Mat.t -> Mat.t -> Mat.t
(** [solve_right b a] is [b * a^-1]. @raise Singular if [a] is singular. *)

val inv : Mat.t -> Mat.t
(** Matrix inverse. @raise Singular if singular. *)
