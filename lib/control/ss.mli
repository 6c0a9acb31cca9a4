(** Linear time-invariant systems in state-space form.

    A system is [x' = A x + B u], [y = C x + D u], where [x'] is the time
    derivative (continuous time) or the next-step state (discrete time with
    a sampling period). The lower linear fractional transformation is the
    interconnection the synthesis routines close loops with. *)

type domain =
  | Continuous
  | Discrete of float  (** Sampling period in seconds. *)

type t = {
  a : Linalg.Mat.t;
  b : Linalg.Mat.t;
  c : Linalg.Mat.t;
  d : Linalg.Mat.t;
  domain : domain;
}

val make :
  ?domain:domain ->
  a:Linalg.Mat.t ->
  b:Linalg.Mat.t ->
  c:Linalg.Mat.t ->
  d:Linalg.Mat.t ->
  unit ->
  t
(** Build a system, checking dimension consistency (default continuous).
    @raise Invalid_argument on inconsistent dimensions. *)

val order : t -> int
(** State dimension. *)

val inputs : t -> int

val outputs : t -> int

val is_stable : t -> bool
(** Hurwitz (continuous) or Schur (discrete) stability of [A]. *)

val dcgain : t -> Linalg.Mat.t
(** Steady-state gain: [D - C A^-1 B] (continuous), or
    [C (I - A)^-1 B + D] (discrete).
    @raise Linalg.Lu.Singular for systems with integrators. *)

(** {1 Simulation (discrete systems)} *)

val step_into :
  t ->
  x:Linalg.Vec.t ->
  u:Linalg.Vec.t ->
  x_next:Linalg.Vec.t ->
  y:Linalg.Vec.t ->
  sx:Linalg.Vec.t ->
  sy:Linalg.Vec.t ->
  unit
(** One step without allocating: writes the next state [A x + B u] into
    [x_next] and the output [C x + D u] into [y], using caller-provided
    scratch [sx] (dimension [order]) and [sy] (dimension [outputs]).
    Each is two matrix-vector products summed entry by entry. [x_next]
    must not alias [x]. *)

(** {1 Interconnection} *)

val lft_lower : t -> t -> t
(** Lower linear fractional transformation [F_l(P, K)]: [P] partitioned
    with its {e last} [inputs K] inputs and {e last} [outputs K] outputs
    connected to [K]. This is the standard plant/controller closure. *)

(** {1 Frequency domain} *)

val freq_response : t -> float -> Linalg.Mat.t * Linalg.Mat.t
(** [freq_response sys w] is [C (jw I - A)^-1 B + D] for continuous
    systems, and [C (e^{jwT} I - A)^-1 B + D] for discrete ones, at angular
    frequency [w] (rad/s), as its real and imaginary parts [(re, im)]:
    the complex-matrix representation {!Ssv} and {!Linalg.Svd.norm2_complex}
    take. *)

val hinf_norm : t -> float
(** Peak singular value of the frequency response over a logarithmic
    frequency grid of 200 points, dc, and 40 points of local refinement
    around the coarse peak. For unstable systems returns [infinity]. *)

val hinf_norm_within : bound:float -> t -> float option
(** The walk of {!hinf_norm}, stopped as soon as an evaluated value
    exceeds [bound]: [None] then, or when the system is unstable;
    otherwise [Some (hinf_norm sys)]. A peak above [bound] always gives
    [None]; a NaN peak is returned as [Some nan]. *)
