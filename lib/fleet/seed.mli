(** Deterministic per-board seed derivation.

    A fleet run owns one [fleet_seed]; every per-board RNG consumer
    (the workload generator, the board's sensor RNG) derives its seed as
    a pure hash of [(fleet_seed, board, stream)]. Board [i] therefore
    behaves identically whatever the fleet size, board construction order
    or job count — the determinism contract behind the [-j1]/[-j8]
    byte-identity of fleet aggregates. *)

val derive : fleet_seed:int -> board:int -> stream:int -> int
(** A non-negative (30-bit) seed for the given board and stream.
    [stream] separates independent consumers on one board (0 =
    workload, 1 = the sensor RNG, which draws nothing while no program
    sets sensor noise).
    @raise Invalid_argument on a negative [board]. *)
