(** The per-layer SSV controller design pipeline (Figure 3, right side).

    Given a layer specification (signals, bounds, weights, guardband) and
    input/output records from training runs, the pipeline:

    + normalizes all signals to the design coordinates,
    + identifies a 4th-order MIMO polynomial model (Box-Jenkins style) and
      realizes it as a state-space system,
    + assembles the generalized plant of the Delta-N representation
      (Figure 2): a multiplicative output-uncertainty block sized by the
      {e uncertainty guardband}, an input block sized by each input's
      {e quantization}, and a fictitious performance block enforcing the
      designer's {e output deviation bounds} against unit references and
      disturbances, with the {e input weights} penalizing actuator effort,
    + runs D-K iteration (mu-synthesis) and wraps the winning controller
      in the runtime state machine.

    [mu_peak <= 1] certifies the requested guardband/bounds combination;
    when [mu_peak > 1] the guarantees hold scaled by [mu_peak] (the
    [SSV(N, Delta, B, W)] scaling argument of Section II-C), which
    {!field-guaranteed_bounds} reports per output. *)

type spec = {
  layer : string;
  inputs : Signal.input array;
  outputs : Signal.output array;
  externals : Signal.external_signal array;
  uncertainty : float;  (** Guardband, e.g. 0.40 for +-40%. *)
  period : float;       (** Controller invocation period, seconds. *)
}

val stabilize : Control.Ss.t -> Control.Ss.t
(** Shrink a marginally unstable identified model's dynamics just
    inside the unit circle (spectral radius scaled to 0.99 when at or
    above 0.995): synthesis needs a stabilizable nominal model, and the
    guardband absorbs the small modelling lie. Identity on comfortably
    stable models. Online re-identification uses this on RLS models
    before re-synthesis, exactly as {!identify} does on batch fits. *)

val normalize_records :
  spec ->
  u:Linalg.Vec.t array ->
  y:Linalg.Vec.t array ->
  Linalg.Vec.t array * Linalg.Vec.t array
(** Physical-unit records (u rows are [inputs; externals]) to design
    coordinates. *)

val identify :
  ?order:int -> spec -> u:Linalg.Vec.t array -> y:Linalg.Vec.t array -> Control.Ss.t
(** Identify the layer model from {e physical-unit} training records
    (default polynomial order 4, as in the paper). The returned model is
    discrete at [spec.period], in normalized coordinates, inputs ordered
    [controlled inputs; externals]; its dynamics are nudged inside the unit
    circle if the raw fit is unstable. *)

val generalized_plant :
  ?ignore_quantization:bool ->
  spec ->
  model:Control.Ss.t ->
  Control.Hinf.plant * Control.Ssv.structure
(** The Delta-N generalized plant and its block structure
    [[Delta_model; Delta_in; Delta_perf]]. With [ignore_quantization] the
    Delta_in block is collapsed to epsilon — the continuous-unbounded
    input assumption of the non-SSV designs (used by the ablation). *)

type synthesis = {
  controller : Controller.t;
  mu_peak : float;       (** Certified SSV upper bound across frequency. *)
  gamma : float;         (** H-infinity level of the winning K-step. *)
  guaranteed_bounds : float array;
      (** Achieved absolute deviation bound per output:
          [mu_peak * designer bound] (equal to the designer's bound when
          [mu_peak <= 1]). *)
  model : Control.Ss.t;
}

val synthesize :
  ?dk_iterations:int ->
  ?mu_points:int ->
  ?ignore_quantization:bool ->
  spec ->
  model:Control.Ss.t ->
  synthesis
(** Run mu-synthesis (default 3 D-K iterations) and wrap the result. The
    controller is deployed at the order synthesis gives it (the hardware
    layer's is the paper's 20 states, Section VI-D).
    @raise Control.Dk.Synthesis_failed when no stabilizing design exists. *)

val design :
  ?order:int ->
  ?dk_iterations:int ->
  spec ->
  u:Linalg.Vec.t array ->
  y:Linalg.Vec.t array ->
  synthesis
(** [identify] followed by [synthesize]: the whole Figure 3 right column. *)
