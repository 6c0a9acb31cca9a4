(** H-infinity output-feedback synthesis.

    The generalized plant maps [[w; u] -> [z; y]]: [w] are exogenous inputs
    (disturbances, references, perturbation inputs), [u] the control
    inputs, [z] the regulated outputs (weighted errors, perturbation
    outputs), and [y] the measurements. Synthesis finds a controller
    [u = K y] that internally stabilizes the loop and makes the closed-loop
    norm [||F_l(P,K)||_inf] less than a bound [gamma], minimized by
    bisection.

    Continuous-time plants use the DGKF two-Riccati central controller
    (Doyle, Glover, Khargonekar, Francis 1989), with the Riccati equations
    solved by the matrix sign function. Discrete-time plants are handled
    through the norm-preserving bilinear transform: map the plant to
    continuous time, synthesize, and map the controller back at the same
    sampling period.

    Every candidate controller is validated a posteriori on the true
    closed loop (stability + norm), so the bisection is trustworthy even
    when the plant violates the textbook regularity assumptions (e.g. a
    nonzero [D11]). *)

type partition = {
  nw : int;  (** exogenous inputs *)
  nu : int;  (** control inputs *)
  nz : int;  (** regulated outputs *)
  ny : int;  (** measurements *)
}

type plant = { sys : Ss.t; part : partition }

type result = {
  controller : Ss.t;
  gamma : float;          (** Bisection level at which synthesis succeeded. *)
  achieved_norm : float;  (** Verified closed-loop H-infinity norm. *)
}

exception Synthesis_failed of string

val validate_partition : plant -> unit
(** @raise Invalid_argument if the partition does not match the system
    dimensions. *)

val close_loop : plant -> Ss.t -> Ss.t
(** Closed loop [F_l(P, K)] from [w] to [z]. *)

val synthesize_at : plant -> float -> Ss.t option
(** Attempt synthesis at a fixed [gamma]; [None] if the Riccati conditions
    fail or the resulting controller does not pass validation. *)

val synthesize : plant -> result
(** Bisect [gamma] down to a relative width of 1e-3, between 1e-3 and an
    upper bound found by doubling from 1. Rank-deficient [D12]/[D21] get
    tiny full-rank regularization terms (1e-6), a standard
    regularization.
    @raise Synthesis_failed if no feasible [gamma] is found. *)
