(** The software/OS-layer controller specification (Table III).

    Inputs (weight 2 — the OS reacts more conservatively than the
    hardware, Section IV-B): threads assigned to the big cluster and the
    average threads per non-idle core in each cluster. Outputs (+-20%
    bounds): per-cluster performance and the spare-compute-capacity
    difference of Eq. 2. External signals: the four hardware-layer
    inputs ({!Knobs.config}). Guardband: +-50%.

    Goal: minimize E x D, relying on the hardware controller for the
    power/temperature caps. *)

val inputs : ?weight:float -> unit -> Signal.input array
(** The three Table III inputs, {!Knobs.placement} ([weight] defaults to
    the paper's 2). *)

val outputs : ?bound:float -> unit -> Signal.output array

val spec :
  ?uncertainty:float -> ?input_weight:float -> ?bound:float -> unit -> Design.spec

val make_optimizer : unit -> Optimizer.t
(** The optimizer over the default-bound {!outputs}: performance outputs
    tracked; the spare-compute difference hill-climbs on E x D (capped at
    +1: a mild bias toward big-cluster slack). *)

(** {1 Board signal plumbing} *)

val measurements : Board.Xu3.outputs -> Linalg.Vec.t
(** [perf_little; perf_big; spare_big - spare_little]. *)
