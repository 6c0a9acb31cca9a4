(** Box-Jenkins-style model refinement.

    A plain ARX fit is biased when the disturbance is colored, because the
    same polynomial must explain both the plant and the noise. The
    Box-Jenkins family models the noise separately. We implement the
    classic iterative generalized-least-squares procedure (Clarke):

    + fit an ARX model,
    + fit an AR polynomial to its one-step residuals (the noise model),
    + prefilter inputs and outputs by that polynomial and refit,
    + repeat until the noise model stops changing.

    The result is an ARX-structured plant model whose estimate is
    consistent under AR-colored noise, plus the identified noise
    polynomial — the same deliverables MATLAB's [bj] routine feeds into the
    paper's controller design. *)

type t = {
  plant : Arx.model;
  noise : Linalg.Vec.t;  (** AR coefficients [c_1..c_nc] of the noise model
                             [e(t) = c_1 e(t-1) + ... + innovation]. *)
  iterations : int;      (** GLS iterations actually performed. *)
}

val fit :
  na:int -> nb:int -> u:Linalg.Vec.t array -> y:Linalg.Vec.t array -> t
(** The noise model is AR(2); at most 4 GLS iterations run. *)

val residuals : Arx.model -> u:Linalg.Vec.t array -> y:Linalg.Vec.t array -> Linalg.Vec.t array
(** One-step-ahead prediction residuals (zero for the warm-up samples). *)
