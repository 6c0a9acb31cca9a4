(** The target-search optimizer of Section IV-D.

    An SSV controller tracks whatever targets it is given; to {e minimize}
    a quantity such as E x D, Yukta augments each controller with an
    optimizer that progressively proposes better output targets. Because
    [E x D ~ Power / Perf^2], the optimizer raises the performance target
    a lot while raising power targets a little; when a move makes E x D
    worse it discards it and moves the other way (lower performance a
    little, lower power a lot), eventually settling around the best
    achievable operating point. Targets for limited outputs never exceed
    the cap minus a quarter of the deviation bound: steady state hugs the
    cap while excursions stay clear of the emergency trip thresholds. *)

type role =
  | Maximize          (** Performance-class output: pushed up (target leads
                          the measurement by one deviation bound). *)
  | Track             (** Target follows the measurement exactly: the
                          output is observed, not steered. *)
  | Limited of float  (** Output with a cap: its target hill-climbs on the
                          objective between a floor and the cap. *)
  | Fixed of float    (** Held at a constant target. *)

type t

val make : outputs:Signal.output array -> roles:role array -> t
(** Initial targets: mid-range for [Maximize], the (margin-adjusted) cap
    for [Limited], the given value for [Fixed]. *)

val targets : t -> Linalg.Vec.t

val update : t -> objective:float -> measurements:Linalg.Vec.t -> Linalg.Vec.t
(** Report the objective (e.g. measured E x D rate — lower is better) and
    the current output measurements; returns the next targets to track.
    Limited outputs hill-climb on the objective between a floor and their
    cap (starting at the cap); Maximize outputs lead the measured value by
    one deviation bound. *)

val reset : t -> unit
