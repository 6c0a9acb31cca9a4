(** Dense real vectors.

    A thin layer over [float array] with the numerical operations the rest of
    the library needs. All operations allocate fresh vectors unless the name
    ends in [_inplace]. Dimension mismatches raise [Invalid_argument]. *)

type t = float array

val create : int -> t
(** [create n] is the zero vector of dimension [n]. *)

val init : int -> (int -> float) -> t
(** [init n f] is the vector whose [i]-th entry is [f i]. *)

val dim : t -> int
(** Number of entries. *)

val copy : t -> t

val of_list : float list -> t

val ones : int -> t
(** All-ones vector. *)

val basis : int -> int -> t
(** [basis n i] is the [i]-th canonical basis vector of dimension [n]. *)

val sub : t -> t -> t

val add_into : dst:t -> t -> t -> unit
(** [add_into ~dst a b]: [dst <- a + b]. [dst] may alias [a] or [b]. *)

val scale : float -> t -> t

val dot : t -> t -> float

val norm2 : t -> float
(** Euclidean norm, computed without overflow for large entries. *)

val norm_inf : t -> float

val map : (float -> float) -> t -> t

val concat : t -> t -> t

val slice : t -> int -> int -> t
(** [slice v pos len] is the sub-vector of [len] entries starting at [pos]. *)
