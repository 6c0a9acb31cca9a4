(** Eigenvalue computations.

    General (non-symmetric) real matrices are handled by Householder
    reduction to upper Hessenberg form followed by the real Francis
    implicit double-shift QR iteration (complex conjugate pairs are
    extracted from trailing 2x2 blocks at the end, so no complex
    arithmetic runs in the iteration itself); symmetric matrices by the
    cyclic Jacobi method. *)

val hessenberg : Mat.t -> Mat.t
(** Orthogonal reduction of a square matrix to upper Hessenberg form
    (same eigenvalues). *)

val eigenvalues : Mat.t -> Complex.t array
(** All eigenvalues of a square real matrix, in no particular order.
    @raise Failure if the QR iteration fails to converge. *)

val spectral_radius : Mat.t -> float
(** Largest eigenvalue magnitude. *)

val is_stable_discrete : Mat.t -> bool
(** All eigenvalues strictly inside the circle of radius [1 - 1e-9]. *)

val is_stable_continuous : Mat.t -> bool
(** All eigenvalues with real part below [-1e-9]. *)

val symmetric_values : Mat.t -> Vec.t
(** Eigenvalues of a symmetric matrix, ascending. Only the lower
    triangle of [a] is read. *)

val is_positive_semidefinite : Mat.t -> bool
(** Symmetric positive semidefiniteness check via Jacobi eigenvalues;
    eigenvalues at or above [-1e-6 * max(1, |a|)] count as non-negative
    (the tolerance [Control.Hinf]'s Riccati checks need). *)
