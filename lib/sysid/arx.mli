(** MIMO ARX model estimation by linear least squares.

    The model is

    [y(t) = A_1 y(t-1) + ... + A_na y(t-na)
          + B_0 u(t) + B_1 u(t-1) + ... + B_{nb-1} u(t-nb+1) + e(t)]

    matching the paper's Section IV-C: with [na = 4], [nb = 4] each output
    at time [T] depends on the outputs at [T-1..T-4] and the inputs at
    [T..T-3]. Estimation solves one multi-output least-squares problem;
    {!to_ss} realizes the polynomial model as a state-space system in block
    observer canonical form, which is what controller synthesis consumes. *)

type model = {
  na : int;
  nb : int;
  ny : int;
  nu : int;
  a : Linalg.Mat.t array;  (** [na] matrices of size [ny x ny]. *)
  b : Linalg.Mat.t array;  (** [nb] matrices of size [ny x nu]; [b.(0)] is
                               the direct feedthrough. *)
}

val fit :
  na:int -> nb:int -> u:Linalg.Vec.t array -> y:Linalg.Vec.t array -> model
(** Least-squares fit from input/output records (arrays indexed by time).
    @raise Invalid_argument if the record is shorter than the regression
    horizon or dimensions are inconsistent. *)

val fit_weighted :
  na:int ->
  nb:int ->
  filter:Linalg.Vec.t ->
  u:Linalg.Vec.t array ->
  y:Linalg.Vec.t array ->
  model
(** Like {!fit} after prefiltering every channel of [u] and [y] with the
    FIR filter [filter] (coefficients of [1 - c_1 q^-1 - ...]); the
    generalized-least-squares step used by {!Boxjenkins}. *)

val predict_one_step : model -> u:Linalg.Vec.t array -> y:Linalg.Vec.t array -> Linalg.Vec.t array
(** One-step-ahead predictions over a record (first [max na (nb-1)]
    samples are echoed as-is since they lack history). *)

val to_ss : model -> period:float -> Control.Ss.t
(** Block observer canonical realization with [na * ny] states. *)
