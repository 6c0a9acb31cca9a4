(** A single resource-control layer — the unit {!Stack} composes.

    The paper's methodology (Section III) treats every layer the same
    way: once per epoch it samples the board, computes new settings for
    the inputs it owns, and actuates them; SSV/LQG layers additionally
    read other layers' current inputs as external signals and may carry
    a target-search optimizer. This module packages both species behind
    one value so the runtime composes any number of them:

    - {e heuristic} layers are (possibly stateful) decision procedures
      ([act]) — the Table IV baselines;
    - {e controlled} layers wrap a synthesized {!Controller} plus either
      an {!Optimizer} (retargeting every 5 epochs on the measured E x D
      rate) or constant targets (the fixed-target modes of Sections
      VI-E1/VI-E3).

    Both kinds emit one [runtime.decision] event per epoch when the Obs
    collector is on. *)

open Linalg

(** How a controlled layer obtains the targets it tracks. *)
type targets =
  | Optimized of Optimizer.t
      (** Retarget every 5 epochs from the measured E x D rate (Section
          IV-D); the controller settles on each target set in
          between. *)
  | Fixed of Vec.t  (** Track these constant targets forever. *)

type t

val heuristic :
  label:string ->
  ?reset:(unit -> unit) ->
  act:(Board.Xu3.t -> Board.Xu3.outputs -> unit) ->
  unit ->
  t
(** A decision-procedure layer. [reset] restores any internal state at
    the start of an execution (default: nothing). *)

val controlled :
  label:string ->
  ?on_reset:(unit -> unit) ->
  ?cap_targets:(cap:float -> Vec.t -> Vec.t) ->
  controller:Controller.t ->
  targets:targets ->
  measure:(Board.Xu3.outputs -> Vec.t) ->
  externals:(Board.Xu3.t -> Vec.t) ->
  actuate:(Board.Xu3.t -> Vec.t -> unit) ->
  unit ->
  t
(** A controller-driven layer. [measure] extracts this layer's output
    vector from a board observation; [externals] reads the current
    values of its external signals (usually other layers' inputs, via
    the board); [actuate] applies the command vector. [on_reset] runs in
    addition to the controller/optimizer resets (e.g. to restore a
    layer-private knob).

    [cap_targets], if given, rewrites the epoch's target vector whenever
    {!step} receives an external power cap — e.g. scaling power-limit
    targets to the board's share of a rack budget. It must return a
    fresh vector (the incoming targets may be optimizer- or caller-owned
    state) and must be the identity for caps at or above the layer's
    uncapped budget, so cap-less runs stay bit-identical. *)

val label : t -> string

val is_controlled : t -> bool

val swap_controller : t -> Controller.t -> unit
(** Replace a controlled layer's controller mid-run (adaptive
    re-synthesis). The incoming controller receives a
    {!Controller.bumpless_from} transfer from the incumbent, so the
    layer's next actuation equals what the incumbent just commanded;
    its own dynamics take over from the following epoch. Only
    meaningful after the layer has stepped at least once.
    @raise Invalid_argument on a heuristic layer or on controller
    dimension mismatch. *)

val with_externals : t -> (Board.Xu3.t -> Vec.t) -> t
(** The same controlled layer with its external-signal wiring replaced
    (e.g. constant center values — the coordination-ablation channel
    cut). The controller and optimizer objects are shared with the
    original, so reset one stack at a time.
    @raise Invalid_argument on a heuristic layer. *)

val with_fixed_targets : t -> Vec.t -> t
(** The same controlled layer with its optimizer replaced by constant
    targets (the optimizer-ablation and fixed-target modes).
    @raise Invalid_argument on a heuristic layer. *)

val reset : t -> unit
(** Start-of-execution reset: controller state, optimizer, E x D
    tracker, epoch counter, and any layer-private state. *)

val step :
  ?health:Obs.Health.layer ->
  ?cap:float ->
  t ->
  Board.Xu3.t ->
  Board.Xu3.outputs ->
  unit
(** One epoch: sample, decide, actuate; emits a [runtime.decision]
    event when the Obs collector (or flight recorder) is on. With
    [?health], also feeds the layer's accumulator — one decision per
    epoch, with tracking error and saturation for controlled layers.
    Health feeding is pure observation: it cannot change the run.

    [?cap] is the external total-board-power cap active this epoch (a
    rack controller's per-board share). Controlled layers built with
    [cap_targets] rewrite their targets under it; heuristic layers
    ignore it and rely on the board's {!Board.Emergency} cap enforcement
    alone. Omitting [cap] is bit-identical to pre-cap behaviour. *)

(** {1 Inter-layer wiring}

    Most external signals travel through the board itself (a layer
    actuates its inputs there; any other layer reads them back). A
    [Wire.t] carries a value the board does not hold — e.g. the OS
    layer's un-clamped placement decision consumed by the hardware
    heuristic the same epoch, or an application-level knob. The
    producing layer [set]s it during its step; consumers [get] it
    later in the stack order. *)
module Wire : sig
  type 'a wire

  val create : 'a -> 'a wire
  (** [create default] — [reset] restores [default]. *)

  val set : 'a wire -> 'a -> unit
  val get : 'a wire -> 'a
  val reset : 'a wire -> unit
end
