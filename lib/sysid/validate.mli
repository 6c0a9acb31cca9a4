(** Model validation metrics.

    The identification loop accepts a model only when it reproduces held-out
    data (FIT%) and leaves residuals that look like white noise — both
    standard practice from Ljung and both reported for every Yukta layer
    model. *)

val fit_percent : actual:Linalg.Vec.t array -> predicted:Linalg.Vec.t array -> Linalg.Vec.t
(** Per-channel normalized fit [100 * (1 - |y - yhat| / |y - mean y|)];
    100 is perfect, 0 no better than the mean, negative worse. *)

val whiteness : Linalg.Vec.t -> float
(** Fraction of the first 10 autocorrelation values within
    the 95% confidence band [+-1.96/sqrt N]; near 1 means white. *)

val channel : Linalg.Vec.t array -> int -> Linalg.Vec.t
(** Extract channel [i] of a vector-valued record as a scalar series. *)
