(** Recursive (online) ARX estimation with exponential forgetting.

    The same model and regressor layout as {!Arx}, updated one sample at
    a time by recursive least squares so a long-lived serving session
    can track the plant without re-fitting over the full record. The
    covariance starts at [delta^-1 I] with the ridge prior [delta =
    1e-6], {!Arx.fit}'s regularizer, so with forgetting factor [1.0] the
    estimate after a record equals the batch ridge fit [Arx.fit]
    computes over that record (same regularizer, different
    factorization) — the property the test suite pins. Forgetting [< 1]
    discounts history with half-life [ln 2 / ln (1/lambda)] samples,
    which is what lets the estimate follow a drifting plant.

    {!Drift} turns the per-sample prediction errors into a drift
    verdict: it calibrates a baseline residual level on the session's
    own early samples, then trips when the residual EWMA exceeds a
    multiple of that baseline — scale-free, so clean sessions never trip
    no matter the scheme's native error magnitude. *)

type t

val create : ?lambda:float -> na:int -> nb:int -> ny:int -> nu:int -> unit -> t
(** [lambda] (default [1.0]) is the forgetting factor in [(0, 1]]. The
    default is a seam: forgetting [1.0] is the batch-fit reference the
    tests check, and programs forget at [0.999].
    @raise Invalid_argument on out-of-range parameters. *)

val observe : t -> u:Linalg.Vec.t -> y:Linalg.Vec.t -> float option
(** Absorb one sample: input [u(t)] and the output [y(t)] it produced.
    Returns the pre-update one-step prediction error (RMS across output
    channels), or [None] during the first [max na (nb-1)] samples while
    the regressor history fills — the same samples {!Arx.fit} skips.
    @raise Invalid_argument on dimension mismatch. *)

val model : t -> Arx.model
(** The current estimate, unpacked into {!Arx.model} coefficient
    matrices (zeros before any update — the ridge prior). *)

val warm_start : t -> Arx.model -> unit
(** Install a prior estimate (e.g. the offline batch fit) as the
    starting parameters, with the covariance set to [I]. A warm-started
    estimator predicts with the prior from the first sample and only
    needs to learn the {e deviation} from it — which is what makes
    closed-loop adaptation workable: steady operation carries too little
    excitation to identify a full model from scratch, but plenty to
    correct a gain.
    @raise Invalid_argument on a shape mismatch. *)

val reset_covariance : delta:float -> t -> unit
(** Re-inflate the input-coefficient (B) block of the covariance to
    [delta^-1 I] and zero the output-history (A) block, keeping the
    parameter estimate. This pins the dynamics at the current
    estimate: the structured reset for gain-type drifts, where
    closed-loop data cannot support re-learning dynamics but easily
    corrects input gains. The pin is permanent; a later {!warm_start}
    lifts it.
    @raise Invalid_argument when [delta <= 0]. *)

(** Prediction-error drift detector. *)
module Drift : sig
  type detector

  val create : unit -> detector
  (** The residual EWMA coefficient is [0.1]; the first [30] residuals
      calibrate the baseline; the detector trips at [2.5] times it. The
      baseline is at least [1e-9], guarding exactly-zero residuals. *)

  val observe : detector -> float -> bool
  (** Feed one residual; [true] exactly when this sample trips the
      detector (subsequent samples return [false] until {!reset}). *)

  val level : detector -> float
  (** Current residual EWMA. *)

  val baseline : detector -> float
  (** Calibrated baseline ([nan] until warm-up completes). *)

  val reset : detector -> unit
  (** Forget everything, including the baseline — called after a
      controller swap so the detector re-calibrates against the new
      closed loop. *)
end
