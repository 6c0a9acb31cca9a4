(** Singular value decomposition via the one-sided Jacobi method.

    [decompose a] for an [m]x[n] matrix returns [(u, s, v)] such that
    [a = u * diag s * v^T], with [u] of size [m]x[k], [v] of size [n]x[k],
    [k = min m n], orthonormal columns, and [s] sorted descending. The
    one-sided Jacobi method is slower than bidiagonalization approaches but
    is simple, robust, and computes small singular values to high relative
    accuracy — which matters for the rank decisions in controller synthesis. *)

val decompose : Mat.t -> Mat.t * Vec.t * Mat.t
(** At most 60 Jacobi sweeps run. A run that hits the cap before column
    orthogonality is not silent: it bumps the [svd.unconverged] counter
    and emits an [svd.unconverged] debug record when the
    {!Obs.Collector} is enabled, then returns the best iterate. Sixty
    sweeps converge for any conditioning encountered in practice. *)

val singular_values : ?max_sweeps:int -> Mat.t -> Vec.t
(** Singular values only, descending. [max_sweeps] (default 60, as in
    {!decompose}) caps the sweep count; it is a seam, so a test can
    force the unconverged report. *)

val norm2 : Mat.t -> float
(** Spectral norm (largest singular value). Zero matrix yields [0.]. *)

val norm2_complex : Mat.t * Mat.t -> float
(** [norm2_complex (re, im)] is the spectral norm of the complex matrix
    [re + i im], by one-sided Jacobi run directly in complex arithmetic
    (planar re/im columns) — no doubled real embedding. This is
    {!norm2_planar} on a planar copy of the matrix whose columns are the
    smaller dimension: the matrix itself when [rows >= cols], its
    transpose otherwise.
    @raise Invalid_argument if [re] and [im] differ in size. *)

val norm2_planar : m:int -> n:int -> float array -> float array -> float
(** [norm2_planar ~m ~n re im] is the spectral norm of the complex
    [m]x[n] matrix stored column by column in two planes: entry [(i, q)]
    has real part [re.(q * m + i)] and imaginary part [im.(q * m + i)].
    Both planes are overwritten. A caller that lays a matrix out as
    {!norm2_complex} does gets its bits without the copy. *)

val rank : Mat.t -> int
(** Numerical rank: singular values above [epsilon_float * max_sv *
    max(m,n)], as in LAPACK. *)
