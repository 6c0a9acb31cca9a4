(** Least squares by Householder QR.

    The reflectors that triangularize [a] are applied to the right-hand
    side as they are built, so [Q] is never formed. *)

val solve_least_squares : Mat.t -> Vec.t -> Vec.t
(** Minimum-residual solution of an overdetermined system [a x ~ b] with
    full column rank [a]. @raise Lu.Singular if rank deficient. *)

val solve_least_squares_mat : Mat.t -> Mat.t -> Mat.t
(** Column-wise least squares with a matrix right-hand side. *)
