(** The hardware-layer controller specification (Table II).

    Inputs: number of big/little cores (1-4) and the two cluster
    frequencies (DVFS grids), all with weight 1. Outputs: total
    performance (+-20% bound) and the three critical signals — big/little
    cluster power and hot-spot temperature (+-10% bounds). External
    signals: the three software-layer inputs ({!Knobs.placement}).
    Guardband: +-40%.

    Goal: minimize E x D subject to
    [Power_big < 3.3 W], [Power_little < 0.33 W], [Temp < 79 C]
    (the limits sit just below the board's emergency trip thresholds,
    Section V-A). *)

val power_limit_big : float
val power_limit_little : float
val temp_limit : float

val period : float
(** 0.5 s — the power-sensor-limited invocation period. *)

val inputs : ?weight:float -> unit -> Signal.input array
(** The four Table II inputs, {!Knobs.config} ([weight] defaults to the
    paper's 1). *)

val outputs : ?perf_bound:float -> unit -> Signal.output array
(** The four Table II outputs: performance (default bound +-20%) and the
    three critical signals (+-10%). *)

val spec :
  ?uncertainty:float ->
  ?input_weight:float ->
  ?perf_bound:float ->
  unit ->
  Design.spec
(** The full layer specification; the optional arguments are the knobs the
    Section VI-E sensitivity studies turn. *)

val board_power_budget : float
(** The board's uncapped total power budget:
    [power_limit_big + power_limit_little]. A rack cap at or above this
    changes nothing; below it, {!cap_targets} scales proportionally. *)

val cap_targets : cap:float -> Linalg.Vec.t -> Linalg.Vec.t
(** Target rewrite under an external total-power cap, for
    [Layer.controlled ~cap_targets]: both power targets are clamped to
    their limit scaled by [cap / board_power_budget] (floored at 5%).
    Identity — the very same vector — for [cap >= board_power_budget]. *)

val optimizer_roles : Optimizer.role array
(** Maximize performance; power and temperature capped at the limits. *)

val make_optimizer : unit -> Optimizer.t
(** The optimizer over the default-bound {!outputs}. *)

(** {1 Board signal plumbing} *)

val measurements : Board.Xu3.outputs -> Linalg.Vec.t
(** [perf; power_big; power_little; temperature] from a board sample. *)
