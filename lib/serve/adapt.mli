(** Online adaptation for a serving session: recursive identification,
    drift detection, and background controller re-synthesis.

    Every epoch the engine records the hardware layer's (input, output)
    pair in the same normalized coordinates the offline design flow
    trains on, feeds them to a {!Sysid.Recursive} estimator, and hands
    the one-step prediction error to a self-calibrating
    {!Sysid.Recursive.Drift} detector. When the detector trips, a fresh
    D-K synthesis against the current recursive model runs on a
    background domain ({!Parallel.Task}); the session keeps stepping on
    the incumbent controller, and the epoch the design lands it is
    hot-swapped in with bumpless transfer ({!Yukta.Layer.swap_controller}
    — the first post-swap actuation equals the last pre-swap one).

    The swap is recorded as an [adapt.swap] Obs event registered as a
    flight-recorder dump trigger, so the {!Obs.Recorder} window leading
    up to every swap is preserved.

    Observation is pure until a swap happens: with no drift the detector
    never trips (it calibrates on the session's own clean residuals), so
    an adaptive session's decisions are bit-identical to a frozen one. *)

type event =
  | Drift_detected of { epoch : int; level : float; baseline : float }
  | Swapped of {
      epoch : int;
      latency_epochs : int;  (** Epochs from detection to swap. *)
      latency_s : float;     (** Simulated seconds from detection to swap. *)
      mu_peak : float;       (** Certified SSV peak of the new design. *)
    }
  | Synthesis_failed of { epoch : int; message : string }

type t

val for_stack : Yukta.Stack.t -> t option
(** Engine for the stack's controlled ["hw"] layer, or [None] when the
    scheme has no such layer (heuristic baselines). *)

val pre_step : t -> Board.Xu3.t -> unit
(** Capture the input the hardware is about to run — call {e before}
    the epoch advances. The layers actuate after the plant, so by the
    time an epoch's outputs exist the board already carries the next
    epoch's commands; without this capture the epoch's sample is
    skipped (identification would otherwise be misaligned by one
    epoch). *)

val observe : t -> epoch:int -> Board.Xu3.t -> Board.Xu3.outputs -> event list
(** Absorb one completed epoch (call after the layers have stepped,
    with the matching {!pre_step} capture). Collects any finished
    background synthesis (performing the swap), then updates the
    estimator and detector — possibly launching a new synthesis.
    Returns the adaptation events of this epoch, oldest first. *)

val swaps : t -> int
(** Controller swaps performed so far. *)

val finish : t -> unit
(** Join any in-flight synthesis domain (discarding its result). Call
    before abandoning the engine so no domain is leaked. *)
