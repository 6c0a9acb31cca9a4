(** The streaming fleet driver: N boards, each under its own
    {!Yukta.Stack}, sharing one rack power budget apportioned by
    {!Rack} each rack epoch.

    The driver keeps persistent per-board state (board + stack) across
    rack epochs. Each rack epoch it splits the still-running boards
    into {!Parallel.Pool.window} contiguous ranges and hands them to
    the pool's streaming [map_reduce] — every board steps
    [rack_epoch / epoch] control epochs under its current cap and
    writes its epochs, average power, progress and finished flag into
    per-board arrays — then folds each range into
    mergeable accumulators {e in board order}: no per-board result is
    ever allocated, and the folded aggregates and collector events are
    byte-identical at any job count. Per-board RNG seeds derive from
    the fleet seed via {!Seed}, so results are also independent of
    board count and ordering. *)

type config = {
  boards : int;
  cap : float;              (** Shared rack budget, watts. *)
  policy : Rack.policy;
  scheme : string;          (** Scheme key for every board's stack. *)
  seed : int;               (** Fleet seed; per-board seeds derive. *)
  epoch : float;            (** Board control epoch, seconds. *)
  rack_epoch : float;       (** Rack decision period, seconds. *)
  max_time : float;         (** Simulated horizon, seconds. *)
  ginsts : float;           (** Per-board workload size, Ginsts. *)
}

val config :
  ?cap_per_board:float ->
  ?policy:Rack.policy ->
  ?scheme:string ->
  ?seed:int ->
  ?max_time:float ->
  ?ginsts:float ->
  boards:int ->
  unit ->
  config
(** Defaults: 1.6 W/board shared budget (contended — the uncapped
    per-board budget is {!Yukta.Hw_layer.board_power_budget} = 3.63 W),
    feedback policy, the ["coord"] scheme (no synthesis needed), seed
    42, 240 s horizon, 60 Ginsts of synthetic (per-board heterogeneous)
    work. Every config steps boards in {!Yukta.Stack.default_epoch}
    (0.5 s) epochs under a 2 s rack epoch.
    @raise Invalid_argument on [boards < 1] or a non-positive budget. *)

type result = {
  cfg : config;
  rack_epochs : int;
  board_epochs : int;       (** Total control epochs stepped, fleet-wide. *)
  completed : int;          (** Boards that finished their work. *)
  makespan : float;         (** Latest board clock at the end, seconds. *)
  energy : float;           (** Fleet joules. *)
  exd : float;              (** Fleet E x D: [energy * makespan]. *)
  cap_violation_s : float;  (** Rack-epoch time with measured total power
                                above the budget. *)
  trips : int;              (** Emergency trips, fleet-wide. *)
  power : Obs.Stats.Welford.t;
      (** Per-board-rack-epoch average power samples. *)
}

val run : ?pool:Parallel.Pool.t -> config -> result
(** Run the fleet to completion or the horizon, stepping the boards on
    [pool] (a one-job pool when absent: everything inline in the
    caller). Results are bit-identical at any job count. *)

val json : result -> Obs.Json.t
(** The deterministic ["fleet"] result block (config echo + aggregate
    metrics). Contains no wall-clock fields, so it is byte-identical
    across job counts; throughput (boards x epochs / wall second) is the
    harness's to report. *)
