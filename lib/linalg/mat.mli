(** Dense real matrices, stored row-major.

    This module is the workhorse of the numerical stack. All operations
    allocate fresh matrices; dimension mismatches raise [Invalid_argument].
    Indices are 0-based throughout. *)

type t = { rows : int; cols : int; data : float array }

(** {1 Construction} *)

val create : int -> int -> t
(** [create m n] is the [m]x[n] zero matrix. *)

val init : int -> int -> (int -> int -> float) -> t
(** [init m n f] has entry [f i j] at row [i], column [j]. *)

val identity : int -> t

val diag : Vec.t -> t
(** Square matrix with the given diagonal. *)

val scalar : int -> float -> t
(** [scalar n s] is [s] times the [n]x[n] identity. *)

val of_lists : float list list -> t

val of_vec_col : Vec.t -> t
(** Column matrix from a vector. *)

val random : ?seed:int -> int -> int -> t
(** Entries uniform in [[-1, 1]], deterministic for a given [seed]. *)

(** {1 Access} *)

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val dims : t -> int * int
val row : t -> int -> Vec.t
val col : t -> int -> Vec.t
val diagonal : t -> Vec.t
val copy : t -> t

val set_row : t -> int -> Vec.t -> unit
val set_col : t -> int -> Vec.t -> unit

val sub_matrix : t -> int -> int -> int -> int -> t
(** [sub_matrix a i j m n] is the [m]x[n] block of [a] with top-left corner
    at ([i], [j]). *)

val set_block : t -> int -> int -> t -> unit
(** [set_block a i j b] overwrites the block of [a] at ([i], [j]) with [b]. *)

(** {1 Shape combinators} *)

val transpose : t -> t
val hcat : t -> t -> t
val vcat : t -> t -> t

val blocks : t list list -> t
(** Assemble a block matrix from a rectangular grid of blocks. *)

(** {1 Arithmetic} *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val scale : float -> t -> t
val mul : t -> t -> t
val mul_vec : t -> Vec.t -> Vec.t

val mul3 : t -> t -> t -> t
(** [mul3 a b c] is [a*b*c], associated for minimal work. *)

(** {1 In-place / destination-passing kernels}

    Allocation-free counterparts of the pure operations above, for hot
    loops: each writes its result into [dst] and computes exactly the
    same float operations in the same order as the pure version, so a
    conversion to these kernels is bit-identical. Dimensions are checked
    once at entry; inner loops are unchecked.

    Aliasing rules: the elementwise kernels ([add_into], [sub_into],
    [scale_into]) tolerate [dst] aliasing a source (each entry is read
    before written). The reduction/permutation
    kernels ([mul_into], [mul_vec_into], [transpose_into],
    [symmetrize_into]) raise [Invalid_argument] if [dst] shares storage
    with a source. *)

val add_into : dst:t -> t -> t -> unit
(** [add_into ~dst a b]: [dst <- a + b]. [dst] may alias [a] or [b]. *)

val sub_into : dst:t -> t -> t -> unit
(** [sub_into ~dst a b]: [dst <- a - b]. [dst] may alias [a] or [b]. *)

val scale_into : dst:t -> float -> t -> unit
(** [scale_into ~dst s a]: [dst <- s*a]. [dst] may alias [a]. *)

val transpose_into : dst:t -> t -> unit
(** [transpose_into ~dst a]: [dst <- a^T]. [dst] must not alias [a]. *)

val symmetrize_into : dst:t -> t -> unit
(** [symmetrize_into ~dst a]: [dst <- (a + a^T)/2]. [dst] must not alias
    [a]. *)

val mul_into : dst:t -> t -> t -> unit
(** [mul_into ~dst a b]: [dst <- a*b]. [dst] must not alias [a] or [b];
    aliasing raises [Invalid_argument]. *)

val mul_vec_into : dst:Vec.t -> t -> Vec.t -> unit
(** [mul_vec_into ~dst a v]: [dst <- a*v]. [dst] must not alias [v] (or
    the storage of [a]). *)

(** {1 Norms and predicates} *)

val norm_fro : t -> float

val norm_inf : t -> float
(** Maximum absolute row sum. *)

val max_abs : t -> float

val is_square : t -> bool
val symmetrize : t -> t
(** [(a + a^T)/2]; useful to remove drift in iterative Riccati solvers. *)

val pp : Format.formatter -> t -> unit
