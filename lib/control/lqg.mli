(** Steady-state Kalman predictor gain for the LQG baselines.

    The state-of-the-art MIMO baseline the Yukta paper compares against
    (Pothukuchi et al., ISCA 2016) combines this predictor with an LQR
    state feedback; [Yukta.Lqg_layer] builds the integral-augmented one.
    Unlike the SSV controllers, LQG accepts no output deviation bounds, no
    input quantization information, no external signals, and no
    uncertainty guardband. *)

val kalman_gain :
  a:Linalg.Mat.t ->
  c:Linalg.Mat.t ->
  w:Linalg.Mat.t ->
  v:Linalg.Mat.t ->
  Linalg.Mat.t
(** Steady-state predictor gain [L] for process noise covariance [w] and
    measurement noise covariance [v].
    @raise Dare.No_solution on undetectable data. *)
