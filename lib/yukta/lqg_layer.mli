(** LQG baseline controllers (Section VI-B).

    The state-of-the-art MIMO comparison point: LQI tracking compensators
    (Kalman predictor + integral-augmented LQR) built from the same
    identified models and comparable weights, but without the SSV
    machinery — no external-signal channels (hence no coordination), no
    output deviation bounds, no input quantization information, and no
    uncertainty guardband. *)

val hw_controller : Training.records -> Controller.t
(** Decoupled hardware LQG: model identified from the layer's own inputs
    only (the other layer's signals land in the noise). *)

val sw_controller : Training.records -> Controller.t

val monolithic_measurements : Board.Xu3.outputs -> Linalg.Vec.t

val monolithic_controller : Training.records -> Controller.t
(** One LQG over both layers' inputs and (deduplicated) outputs. *)

val monolithic_optimizer : unit -> Optimizer.t
