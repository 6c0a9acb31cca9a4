(** Dense complex matrices (row-major), built on [Stdlib.Complex].

    Used by the eigenvalue solver, frequency-response evaluation and the
    structured-singular-value routines, where real arithmetic is not
    enough. The API mirrors the real {!Mat} module where meaningful. *)

type t = { rows : int; cols : int; data : Complex.t array }

val create : int -> int -> t
val init : int -> int -> (int -> int -> Complex.t) -> t
val identity : int -> t
val of_real : Mat.t -> t
val real_part : t -> Mat.t
val imag_part : t -> Mat.t

val get : t -> int -> int -> Complex.t
val set : t -> int -> int -> Complex.t -> unit
val dims : t -> int * int

val add : t -> t -> t
val scale_real : float -> t -> t
val mul : t -> t -> t
val mul_vec : t -> Complex.t array -> Complex.t array

val conj_transpose : t -> t

val diag : Complex.t array -> t

val max_abs : t -> float

val solve : t -> t -> t
(** Gaussian elimination with partial pivoting.
    @raise Lu.Singular when singular. *)

val inv : t -> t

val approx_equal : ?tol:float -> t -> t -> bool
