(** Structured Singular Value (SSV, "mu") analysis.

    Given a complex matrix [M] seen by a structured perturbation
    [Delta = diag(Delta_1, ..., Delta_k)], the SSV is

    [mu(M) = 1 / min { sigma_max(Delta) | det(I - M Delta) = 0 }]

    (and [0] if no structured [Delta] makes the loop singular). Computing
    [mu] exactly is NP-hard; as in practice we compute:
    - an {e upper bound} [min_D sigma_max(D_l M D_r^-1)] over the diagonal
      scalings [D] that commute with the structure (Osborne balancing
      followed by per-block coordinate descent), and
    - a {e lower bound} by a power-like alignment iteration that constructs
      an explicit worst-case [Delta] (any structured [Delta] with
      [rho(M Delta) = r] certifies [mu >= r]).

    A robustly stable/performant design is certified by [mu <= 1] across
    frequency (main loop theorem); D-K iteration reads only the upper
    bound, whose scales are its D-step.

    A complex matrix is a pair [(re, im)] of real matrices of one size,
    as {!Ss.freq_response} returns it. *)

type block =
  | Full of int * int
      (** [Full (p, q)]: a full complex block; [Delta_i] is [q x p],
          consuming [p] rows (outputs [z_i]) and [q] columns (inputs
          [w_i]) of [M]. *)
  | Repeated of int
      (** [Repeated n]: repeated complex scalar [delta * I_n]. *)

type structure = block list

val block_rows : structure -> int
(** Total rows of [M] the structure consumes. *)

val block_cols : structure -> int

type bound = {
  value : float;
  scales : float array;  (** One positive scale per block (upper bound). *)
}

val mu_upper : structure -> Linalg.Mat.t * Linalg.Mat.t -> bound
(** Scaled-norm upper bound with optimized per-block D scales.
    @raise Invalid_argument if the structure does not tile [M], or if
    [M]'s two parts differ in size; so do {!mu_lower} and
    {!worst_case_delta}. *)

val mu_lower : structure -> Linalg.Mat.t * Linalg.Mat.t -> float
(** Alignment-iteration lower bound, the best of four seeded starts. *)

val worst_case_delta :
  structure ->
  Linalg.Mat.t * Linalg.Mat.t ->
  (Linalg.Mat.t * Linalg.Mat.t) * float
(** The structured [Delta] (unit norm) found by the lower-bound search and
    the associated [rho(M Delta)] certificate. *)

type frequency_sweep = {
  peak : float;                  (** Peak upper bound over frequency. *)
  peak_frequency : float;
  peak_scales : float array;     (** D scales at the peak. *)
  frequencies : float array;
  upper_bounds : float array;
}

val sweep : ?points:int -> structure -> Ss.t -> frequency_sweep
(** Evaluate the mu upper bound of a stable system's frequency response
    over [points] (default 60) log-spaced frequencies from [wmax / 1e6]
    to [wmax], the Nyquist frequency of a discrete system (no dc point).
    No lower bound is computed: for a certificate at one frequency, run
    {!worst_case_delta} on {!Ss.freq_response} there. *)
