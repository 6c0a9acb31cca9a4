(** The heuristic baseline controllers of Table IV.

    {b Coordinated heuristic} (the evaluation baseline): an HMP-style OS
    scheduler that splits threads by cluster capacity (using the number,
    type and frequency of cores — its coordination channel), and a vendor
    hardware stack: a rate-limited frequency ladder with conservative
    power/thermal watermarks plus TMU-style thermal core control and
    frequency caps. Representative of industry big.LITTLE stacks and of
    their worst-case-tuned margins.

    {b Decoupled heuristic}: round-robin OS placement blind to the
    hardware, and a "performance governor" hardware layer — maximum
    everything while readings look clean, threshold backoff only after
    sustained violations. The board's emergency machinery reacts faster,
    so the system ping-pongs against it (the Figure 10(b) oscillation). *)

val os_coordinated :
  config:Board.Xu3.config -> outputs:Board.Xu3.outputs -> Board.Xu3.placement
(** HMP-style capacity-proportional thread split. *)

val os_round_robin : outputs:Board.Xu3.outputs -> Board.Xu3.placement

type coordinated_state = { mutable tick : int }

val coordinated_init : unit -> coordinated_state

val hw_coordinated :
  ?state:coordinated_state ->
  config:Board.Xu3.config ->
  outputs:Board.Xu3.outputs ->
  placement:Board.Xu3.placement ->
  unit ->
  Board.Xu3.config
(** One epoch of the vendor hardware stack. [config] should be the
    {e effective} configuration (what the chip actually runs). *)

type decoupled_state = {
  mutable violation_epochs : int;
  mutable backoff_level : int;
  mutable clean_epochs : int;
}

val decoupled_init : unit -> decoupled_state
val decoupled_reset : decoupled_state -> unit

val hw_decoupled :
  decoupled_state -> outputs:Board.Xu3.outputs -> Board.Xu3.config
