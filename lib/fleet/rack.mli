(** The rack-layer controller: one shared power budget apportioned over
    N per-board stacks, re-decided each rack epoch from measured
    per-board power and progress.

    This is the N-layer generalisation one level above {!Yukta.Stack}:
    the rack measures its boards the way a layer measures its board, and
    actuates per-board caps the way a layer actuates configurations
    (each cap goes to the board through {!Board.Xu3.set_power_cap}, for
    {!Board.Emergency} enforcement, and to every layer through
    {!Yukta.Stack.step}, for the controlled layers' target rewrite —
    see {!Sim}).

    Three policies, in ascending sophistication:
    - {e even-split} — the static baseline: every board gets cap/N,
      forever, measurements ignored;
    - {e proportional} — a heuristic: per-board demand is EWMA-estimated
      from measured power (inflated when a board is pressed against its
      cap) and the budget is water-filled proportionally to demand;
    - {e feedback} — proportional demand shares plus an LQR trim loop on
      total measured power (scalar DARE gain via {!Yukta.Designs},
      cached in [.yukta_cache/]) that safely oversubscribes sustained
      headroom, and a progress tilt toward laggards to compress the
      finish-time spread.

    Everything is plain arithmetic over arrays in board-index order:
    stepping is deterministic at any job count. *)

type policy = Even_split | Proportional | Feedback

val policy_name : policy -> string
(** ["even-split"], ["proportional"], ["feedback"]. *)

val policy_of_string : string -> policy option
(** Accepts the names above plus the aliases [even], [static], [prop]
    and [lqg] (case-insensitive). *)

val board_ceiling : float
(** The most a board can sustainedly draw (the sum of the emergency
    power-trip thresholds); demand estimates and allocations saturate
    here. *)

type t

val make : policy:policy -> boards:int -> cap:float -> unit -> t
(** A rack controller for [boards] boards sharing [cap] watts. No board
    is allocated less than 0.45 W (clamped to the fair share). The
    feedback policy trims with the cached {!Yukta.Designs.rack_gain}.
    Initial apportionment is the even split.
    @raise Invalid_argument on [boards < 1] or a non-positive [cap]. *)

val caps : t -> float array
(** The current per-board apportionment, watts. The returned array is
    the controller's own state: read it, don't write it. *)

val trim : t -> float
(** The feedback policy's current budget multiplier (1.0 otherwise). *)

val step :
  t ->
  power:float array ->
  progress:float array ->
  active:bool array ->
  unit
(** One rack epoch: fold the per-board measurements (average power over
    the last rack epoch, fraction of work retired, still-running flag)
    into the demand estimates and recompute {!caps}. Inactive boards
    are held at the floor and excluded from the budget fight.
    @raise Invalid_argument when array lengths differ from the board
    count. *)
