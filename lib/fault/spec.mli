(** The fault vocabulary: timed disturbances a robustness campaign
    injects into the board simulator.

    Three families, mirroring how a real platform fails around a
    controller:

    - {b sensor faults} corrupt what the control stack observes
      (dropout holds the last reading, stuck-at pins it, spike scales
      it) — the protection machinery keeps seeing the truth;
    - {b actuator faults} intercept configuration/placement commands
      (stuck ignores them, delayed applies them late);
    - {b plant drifts} move the true dynamics away from the identified
      model, with severities expressed as {e fractions of the design
      guardband} (Section V's uncertainty ball): a severity [f] at
      guardband [g] puts the plant at [1 + f*g] times the modeled gain,
      so [f <= 1] stays inside the ball the SSV synthesis certified and
      [f > 1] leaves it. *)

type channel = Perf | Power_big | Power_little | Temperature

type sensor_kind =
  | Dropout            (** Reading freezes at the last pre-fault value. *)
  | Stuck_at of float  (** Reading pinned to a constant. *)
  | Spike of float     (** Reading multiplied by this factor. *)

type actuator_kind =
  | Stuck              (** New commands are ignored; the board keeps the
                           configuration from fault onset. *)
  | Delayed of float   (** Commands apply this many seconds late. *)

type kind =
  | Sensor of channel * sensor_kind
  | Actuator of actuator_kind
      (** Applies to both actuation surfaces (config and placement). *)
  | Power_gain_drift of float          (** Fraction of guardband. *)
  | Thermal_resistance_drift of float  (** Fraction of guardband. *)
  | Workload_phase_shift of float
      (** IPC drop, as a fraction of guardband: retire rate scales by
          [1/(1 + f*g)]. *)

type timed = { start : float; duration : float; fault : kind }

val make : start:float -> duration:float -> kind -> timed
(** @raise Invalid_argument on negative start, non-positive duration,
    or non-positive severity/delay/spike factor. *)

val stop : timed -> float
(** [start +. duration]. *)

val describe : timed -> string
(** One human-readable line with the timing window. *)

val power_gain : guardband:float -> kind -> float
(** Multiplicative gain on true cluster power (1.0 for non-drift). *)

val thermal_gain : guardband:float -> kind -> float

val perf_gain : guardband:float -> kind -> float

val to_json : timed -> Obs.Json.t
