(** Excitation signal generators for system identification.

    System identification (Ljung) needs inputs that are persistently
    exciting: they must visit the admissible settings often enough, across
    enough frequencies, for least squares to recover the dynamics. For
    computer-system knobs (discrete frequency/core-count levels) the
    natural choice is a multilevel pseudo-random sequence with a hold time,
    which is what the paper's training runs effectively apply. *)

type t = {
  seed : int;
  hold : int;  (** Steps each level is held; larger hold excites lower
                   frequencies. *)
}

val multilevel : t -> levels:float array -> length:int -> Linalg.Vec.t
(** Random piecewise-constant sequence over the given levels. *)

val channels :
  t -> levels:float array array -> length:int -> Linalg.Vec.t array
(** One independent multilevel sequence per channel; result is indexed by
    time, each element a vector across channels (the layout consumed by
    {!Arx.fit}). *)
