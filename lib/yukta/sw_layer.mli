(** The software/OS-layer controller specification (Table III).

    Inputs (weight 2 — the OS reacts more conservatively than the
    hardware, Section IV-B): threads assigned to the big cluster and the
    average threads per non-idle core in each cluster. Outputs (+-20%
    bounds): per-cluster performance and the spare-compute-capacity
    difference of Eq. 2. External signals: the four hardware-layer
    inputs ({!Knobs.config}). Guardband: +-50%.

    Goal: minimize E x D, relying on the hardware controller for the
    power/temperature caps. *)

val inputs : unit -> Signal.input array
(** The three Table III inputs, {!Knobs.placement}, at the paper's
    weight 2. *)

val outputs : ?bound:float -> unit -> Signal.output array

val spec : ?bound:float -> unit -> Design.spec
(** The Table III spec at output bound [bound] (default +-20%). The
    guardband (+-50%) and the input weight (2) are the paper's; the
    sweep and the Figs. 15-17 studies turn only the hardware layer's
    (see {!Hw_layer.spec}). *)

val make_optimizer : unit -> Optimizer.t
(** The optimizer over the default-bound {!outputs}: performance outputs
    tracked; the spare-compute difference hill-climbs on E x D (capped at
    +1: a mild bias toward big-cluster slack). *)

(** {1 Board signal plumbing} *)

val measurements : Board.Xu3.outputs -> Linalg.Vec.t
(** [perf_little; perf_big; spare_big - spare_little]. *)
