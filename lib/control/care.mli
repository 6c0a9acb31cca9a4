(** Continuous-time algebraic Riccati equation solver.

    Solves [A^T X + X A - X B R^-1 B^T X + Q = 0] for the unique
    symmetric stabilizing solution, by the matrix sign function of the
    associated Hamiltonian (Roberts' method with Byers' determinant
    scaling). This inversion-only algorithm avoids an ordered Schur
    decomposition and is reliable for the modest problem sizes of
    controller synthesis. *)

exception No_solution of string
(** Raised when the Hamiltonian has imaginary-axis eigenvalues, the sign
    iteration fails, or the extracted solution does not stabilize. *)

val solve_hamiltonian : Linalg.Mat.t -> Linalg.Mat.t
(** [solve_hamiltonian h] for a [2n x 2n] Hamiltonian
    [h = [[A, -G]; [-Q, -A^T]]] returns the stabilizing solution [X] of the
    Riccati equation defined by [h]. Works for indefinite [G] and [Q] as
    needed by H-infinity synthesis.
    @raise No_solution as described above. *)

val solve :
  a:Linalg.Mat.t ->
  b:Linalg.Mat.t ->
  q:Linalg.Mat.t ->
  r:Linalg.Mat.t ->
  Linalg.Mat.t
(** Standard LQR-form CARE. [q] must be symmetric PSD and [r] symmetric PD.
    @raise No_solution as described above. *)
