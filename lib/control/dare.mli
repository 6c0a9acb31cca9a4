(** Discrete-time algebraic Riccati equation solver.

    Solves [X = A^T X A - A^T X B (R + B^T X B)^-1 B^T X A + Q] for the
    symmetric stabilizing solution, using the structure-preserving doubling
    algorithm (SDA), which converges quadratically under stabilizability
    and detectability. *)

exception No_solution of string

val solve :
  a:Linalg.Mat.t ->
  b:Linalg.Mat.t ->
  q:Linalg.Mat.t ->
  r:Linalg.Mat.t ->
  Linalg.Mat.t
(** @raise No_solution if the doubling iteration breaks down or fails to
    converge (unstabilizable/undetectable data). *)

val gain : a:Linalg.Mat.t -> b:Linalg.Mat.t -> r:Linalg.Mat.t -> Linalg.Mat.t -> Linalg.Mat.t
(** [gain ~a ~b ~r x] is the optimal feedback gain
    [K = (R + B^T X B)^-1 B^T X A], so that [u = -K x]. *)
