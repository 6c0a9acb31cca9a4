(** Seeded deterministic fault-schedule generation.

    A schedule is just a [Spec.timed list]; this module generates one
    from a seed and a campaign profile such that the same (seed,
    profile) pair always yields the identical schedule — campaigns are
    regenerable experiments, and every scheme in a campaign replays the
    same disturbance sequence. *)

type profile = {
  label : string;      (** For display and JSON. *)
  horizon : float;     (** Faults start within [0.05, 0.65] x horizon and
                           last [0.08, 0.25] x horizon seconds. *)
  count : int;         (** Number of faults drawn. *)
  severity : float;    (** Drift severity, fraction of
                           {!default_guardband}. *)
}

val default_guardband : float
(** 0.40 — the +-40% default of the hardware-layer spec (Table II). *)

val in_guardband : ?horizon:float -> ?count:int -> unit -> profile
(** Severity 0.75: every plant drift stays inside the uncertainty ball
    the SSV synthesis certified. Defaults: 120 s horizon, 6 faults.
    @raise Invalid_argument unless [horizon] is finite and positive and
    [count >= 1]. *)

val out_of_guardband : ?horizon:float -> ?count:int -> unit -> profile
(** Severity 2.5: plant drifts leave the certified ball — nothing is
    guaranteed for anyone out here; the question is who degrades
    gracefully. Defaults and errors as {!in_guardband}. *)

val generate : seed:int -> profile -> Spec.timed list
(** Deterministic: same seed and profile, same schedule (sorted by
    start time). Fault families are stratified — fault [i] cycles
    through sensor, plant-drift, actuator — so every campaign covers
    the vocabulary; only shapes, parameters, and timing are random. *)

val first_start : Spec.timed list -> float option
(** Earliest fault onset; [None] on an empty schedule. *)

val last_clear : Spec.timed list -> float option
(** Latest fault clear time — recovery is measured from here. *)

val to_json : Spec.timed list -> Obs.Json.t
