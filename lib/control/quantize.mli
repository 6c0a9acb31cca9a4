(** Actuator saturation and quantization.

    SSV design takes, for every input, a description of its allowed
    discrete values (Section II-B of the paper): a range plus a step. At
    runtime the controller's continuous command is projected onto that
    grid; at design time the projection error is converted into an
    uncertainty radius that is folded into the guardband, which is exactly
    how the "Delta_in" block of the Delta-N representation is realized. *)

type channel = { minimum : float; maximum : float; step : float }

val make : minimum:float -> maximum:float -> step:float -> channel
(** @raise Invalid_argument unless [minimum < maximum] and [step > 0]. *)

val levels : channel -> float array
(** All representable values, ascending: [minimum, minimum+step, ...]. *)

val project : channel -> float -> float
(** Clamp into range, then round to the nearest grid point. *)

val project_array : channel array -> float array -> unit
(** [project_array cs xs] replaces each [xs.(i)] by [project cs.(i)
    xs.(i)], in place — the per-step form, which passes no float across
    a module boundary. *)

val relative_uncertainty : channel -> float
(** The worst-case projection error of an in-range command, [step / 2],
    normalized by the half-range: the multiplicative uncertainty this
    input contributes to the guardband. *)

val span : channel -> float
(** [maximum - minimum]. *)
