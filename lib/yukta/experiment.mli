(** Evaluation drivers: run scheme sets across workload suites and
    normalize every metric to the first scheme (the baseline), the way
    every figure in the paper's evaluation reports its bars.

    Suites are keyed by registry entries ({!Schemes.info}), so any
    registered scheme — two layers or ten — joins a suite unchanged. *)

type app_result = {
  app : string;
  scheme : Schemes.info;
  metrics : Board.Xu3.metrics;
  completed : bool;
  health : Obs.Health.t;  (** The cell's controller-health monitors. *)
}

val suite_entries : unit -> (string * Board.Workload.t list) list
(** The Figure 9 suite: 6 SPEC + 8 PARSEC applications, one job each. *)

val mix_entries : unit -> (string * Board.Workload.t list) list
(** The Figure 14 heterogeneous mixes (two 4-thread jobs each). *)

val average : float list -> float
(** Arithmetic mean. @raise Invalid_argument on an empty list. *)

type normalized_row = {
  name : string;
  exd : (Schemes.info * float) list;   (** Normalized E x D per scheme. *)
  time : (Schemes.info * float) list;  (** Normalized execution time. *)
  raw : (Schemes.info * app_result) list;
      (** The un-normalized per-scheme results behind the ratios. *)
}

val run_suite :
  ?max_time:float ->
  ?pool:Parallel.Pool.t ->
  schemes:Schemes.info list ->
  (string * Board.Workload.t list) list ->
  normalized_row list
(** Run every scheme on every entry; normalize to the first scheme.
    Every scheme's stack is built once in the calling domain (the
    single-force warm-up of its designs), then the [(scheme, app)] cells
    run on [pool] (a one-job pool when absent) and rows reassemble in
    entry order — results and trace stream are byte-identical at any
    job count. *)

val averages :
  normalized_row list ->
  spec_names:string list ->
  parsec_names:string list ->
  value:(normalized_row -> (Schemes.info * float) list) ->
  Schemes.info ->
  float * float * float
(** [(SAv, PAv, Avg)] — the SPEC, PARSEC and overall averages of the
    Figure 9 bar layout. A subset with no matching rows averages to
    [nan] (rendered blank by the table printers). *)

val suite_json : normalized_row list -> Obs.Json.t
(** Machine-readable form of a suite: per-app rows with raw and
    normalized E x D / execution-time metrics per scheme, plus suite
    averages — the shape [bench --json] embeds per figure. *)

val suite_health_json : normalized_row list -> Obs.Json.t
(** Fleet health: every row's per-scheme {!Obs.Health} accumulators
    merged into one aggregate per scheme (keyed by scheme name). The
    fold runs in row order regardless of how the cells were scheduled,
    so the block is byte-identical at any job count. *)
