(** An N-layer control stack: the multilayer runtime of Figures 4, 5
    and 7, generalized from the paper's HW+OS prototype to any number
    of {!Layer}s.

    Every 500 ms (the power-sensor-limited invocation period of Section
    V-A) the stack steps its layers {e in declared order} against the
    same board observation: each layer samples, decides and actuates
    before the next runs, so a lower layer sees the settings a higher
    layer just applied (the paper steps the OS layer before the
    hardware layer). External signals travel through the board itself —
    a layer actuates its inputs there and any other layer reads them
    back — or through a {!Layer.Wire} for values the board does not
    hold.

    This module owns the single stepping loop every execution mode
    shares: scheme runs, ablations, fixed-target studies and sensor
    sweeps are all stacks, differing only in their layer lists. *)

type t

val make : ?label:string -> Layer.t list -> t
(** [make layers] — stepped first-to-last each epoch.
    @raise Invalid_argument on an empty list or duplicate labels. *)

val layers : t -> Layer.t list
(** In stepping order. *)

val reset : t -> unit
(** Reset every layer (start of an execution). *)

val step : ?cap:float -> t -> Board.Xu3.t -> Board.Xu3.outputs -> unit
(** One epoch: step every layer in declared order. [?cap] is the
    external total-power cap active this epoch, forwarded to every
    {!Layer.step}; the caller also imposes it on the board
    ({!Board.Xu3.set_power_cap}), as [Fleet.Sim] does for each board. *)

val default_epoch : float
(** The default invocation period, seconds (0.5 — the power-sensor-
    limited period of Section V-A). Override per run with [run ?epoch]. *)

val default_max_time : float
(** The default simulated-time horizon of a run, seconds (3000). Any
    well-formed run ends well before it. Override per run with
    [run ?max_time]. *)

type trace_point = {
  time : float;
  power_big : float;          (** True instantaneous big-cluster power. *)
  power_big_sensor : float;   (** What the 260 ms sensor reported. *)
  power_little : float;
  bips : float;
  temperature : float;
  freq_big : float;           (** Effective (post-emergency) frequency. *)
  big_cores : int;
}

type result = {
  metrics : Board.Xu3.metrics;
  completed : bool;
  trace : trace_point array;  (** Per-epoch; empty unless requested. *)
  health : Obs.Health.t;      (** Always-on controller-health monitors:
                                  per-layer tracking error/saturation,
                                  guardband channels, trip counts. Pure
                                  observation — it never perturbs the
                                  run. *)
}

(** {1 Incremental stepping}

    The stepping loop, reified as a value: a [stepper] owns a fresh
    board and advances it one epoch per {!step_epoch} call, doing
    exactly what one iteration of {!run}'s loop does — layer stepping
    and health feeding. {!run} itself is implemented on a
    stepper, so any driver that hosts one (a serving session, a bench)
    produces bit-identical decisions to a batch run of the same stack
    by construction. *)

type stepper

val stepper :
  ?sensor_period:float ->
  ?epoch:float ->
  ?injector:Board.Xu3.injector ->
  t ->
  Board.Workload.t list ->
  stepper
(** Create a board for [workloads], reset the stack and bind the two.
    Options as in {!run}. The stack is reset here — mounting one stack
    on two live steppers shares controller state and is an error.
    @raise Invalid_argument on a non-positive [epoch]. *)

val step_epoch : stepper -> Board.Xu3.outputs option
(** Advance one epoch; [None] once the workloads have finished (the
    caller owns any wall-clock or simulated-time budget — {!run} stops
    at [max_time]). Emits the usual [runtime.decision] / [runtime.epoch]
    events via the layers when the Obs collector is on. *)

val board : stepper -> Board.Xu3.t
val stack : stepper -> t
val health : stepper -> Obs.Health.t
val time : stepper -> float
(** Current simulated time. *)

val finished : stepper -> bool
val epoch_count : stepper -> int
(** Epochs stepped so far. *)

val complete_event : stepper -> unit
(** Emit the [runtime.run_complete] summary event (when observing);
    {!run} calls this once its loop exits. *)

val run :
  ?max_time:float ->
  ?collect_trace:bool ->
  ?sensor_period:float ->
  ?epoch:float ->
  ?injector:Board.Xu3.injector ->
  t ->
  Board.Workload.t list ->
  result
(** Run the stack to workload completion (or [max_time], default
    {!default_max_time}). [sensor_period] overrides the power-sensor
    refresh for the sensitivity ablation; [epoch] the stepping period
    (default {!default_epoch}; must be positive); [injector] attaches
    fault-injection hooks to the board (robustness campaigns). Emits
    per-epoch [runtime.epoch] events and a [runtime.run_complete]
    summary when the Obs collector is on.
    @raise Invalid_argument on a non-positive [epoch]. *)
