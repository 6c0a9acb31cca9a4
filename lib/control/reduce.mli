(** Balanced truncation model reduction.

    Controller synthesis produces state dimensions that grow with the
    plant and weight orders; a hardware implementation (Section VI-D of
    the paper budgets a 20-state machine) wants the smallest controller
    that preserves the loop. Balanced truncation computes the balanced
    realization — where the controllability and observability gramians are
    equal and diagonal (the Hankel singular values) — and drops the states
    that are hardest to reach {e and} hardest to observe, with the classic
    additive error bound [2 * sum of discarded Hankel values]. *)

val hankel_singular_values : Ss.t -> Linalg.Vec.t
(** Descending Hankel singular values of a stable system. *)

val balanced_truncation : Ss.t -> order:int -> Ss.t
(** Reduce a {e stable} system to the given order.
    @raise Invalid_argument if [order] exceeds the system order or the
    system is unstable. *)

val error_bound : Ss.t -> order:int -> float
(** The a-priori H-infinity error bound [2 * sum_{i>order} sigma_i]. *)
