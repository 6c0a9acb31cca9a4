(** The map-reduce sweep driver.

    A sweep is described by a {!type-plan}: the axis {!Space.t}, the sampling
    seed and count, and the {e probe} (the fixed short workload every
    candidate design is evaluated on). The {e map} phase fans the plan's
    points over a {!Parallel.Pool} — each point synthesizes its designs
    through the content-addressed [.yukta_cache/] (cache hits make
    repeated sweeps cheap) and runs the probe — and the {e reduce} phase
    folds each result, in input order, into an online {!Frontier} and an
    append-only {!Checkpoint}, so the full sweep is never materialized
    and a killed run resumes where it stopped.

    Determinism contract (DESIGN.md section 14): everything that reaches
    the frontier — point ids, synthesized designs, probe metrics,
    controller cost — is a pure function of the plan, so the emitted
    ["frontier"] block is byte-identical at any job count, across
    kill/resume, and across a sharded-then-merged versus single-shot
    run. Wall-clock quantities (synthesis time, sweep time) are reported
    separately and never enter the frontier. *)

type probe = {
  app : string;      (** Workload name (see [yukta_cli apps]). *)
  ginsts : float;    (** Probe workload size, Ginsts. *)
  max_time : float;  (** Probe horizon, simulated seconds. *)
}

type plan = {
  space : Space.t;
  seed : int;    (** Sampling seed ({!Space.sample}). *)
  points : int;  (** Requested sample size; [<= 0] or [>= cardinality]
                     sweeps the full grid. *)
  probe : probe;
}

val default_probe : probe
(** blackscholes at 60 Ginsts, 240 s horizon. *)

val smoke_probe : probe
(** blackscholes at 12 Ginsts, 60 s horizon — the CI-sized probe. *)

val plan :
  ?space:Space.t -> ?seed:int -> ?points:int -> ?probe:probe -> unit -> plan
(** Defaults: the {!Space.default} grid, seed 42, the full grid,
    {!default_probe}.
    @raise Invalid_argument on an unknown probe app or non-positive
    probe parameters. *)

val sample_size : plan -> int
(** Points the plan actually evaluates:
    [min points (Space.cardinality space)] with the full grid for
    [points <= 0]. *)

val fingerprint : plan -> string
(** Hex digest of everything that determines results: space, seed,
    sample count and probe. Checkpoints and artifacts embed it; resume
    and merge refuse a mismatch. *)

type shard = {
  index : int;   (** 1-based, [1 <= index <= shards]. *)
  shards : int;
}

val shard_ids : plan -> shard -> int list
(** The shard's point ids, ascending: the plan's sampled ids striped
    round-robin (sample position [k] lands on shard [k mod shards + 1]),
    so shard loads stay balanced whatever the sample.
    @raise Invalid_argument on an invalid shard. *)

val evaluate : plan -> Space.point -> Checkpoint.record
(** Evaluate one point: synthesize the arrangement's designs (through
    [Yukta.Designs]'s cache), run the probe at the point's epoch, and
    package the objectives. Emits [sweep.synthesize] and [sweep.point]
    wall-clock spans when the Obs collector is enabled. Pure modulo the
    design cache and the recorded wall time. *)

type outcome = {
  plan : plan;
  shard : shard;
  frontier : Frontier.t;   (** Frontier over the shard's points. *)
  shard_points : int;      (** Points assigned to this shard. *)
  resumed : int;           (** Results replayed from the checkpoint. *)
  evaluated : int;         (** Points computed by this run. *)
  synth_wall_s : float;    (** Synthesis wall time of this run's
                               evaluations (cache hits count ~0). *)
  checkpoint : string;     (** The shard's checkpoint file. *)
}

val run : ?pool:Parallel.Pool.t -> ?dir:string -> ?shard:shard -> plan -> outcome
(** Run (or resume) one shard of the plan. [dir] is the checkpoint
    directory (default [.yukta_sweep]); [shard] defaults to [1/1] (the
    whole plan). Previously checkpointed points are folded into the
    frontier without re-evaluation; remaining points fan out over
    [pool] (a one-job pool when absent) and checkpoint as they
    complete.
    @raise Checkpoint.Mismatch when the checkpoint belongs to a
    different plan. *)

(** {1 Artifacts}

    The [yukta.bench-sweep/v1] document (schema in BENCHMARKS.md). The
    ["frontier"] block is the deterministic, comparable artifact; the
    ["sweep"] and ["bench"] blocks carry per-run metadata (shard
    layout, resume counts, wall clock) and may differ between runs that
    produced byte-identical frontiers. *)

val frontier_block : plan -> Frontier.t -> Obs.Json.t
(** The deterministic ["frontier"] block: plan echo (fingerprint, seed,
    sample size, cardinality, space, probe) plus the frontier members
    sorted by point id. *)

val artifact : ?smoke:bool -> jobs:int -> wall_s:float -> outcome -> Obs.Json.t
(** The full document for one (possibly sharded) run. *)

val merge : Obs.Json.t list -> Obs.Json.t
(** Reduce shard documents to the combined ["frontier"] block: checks
    that every document carries the same plan (byte-compared minus
    members), unions the members through a fresh frontier, and rebuilds
    the block. Merging every shard of a plan yields a block
    byte-identical to the single-shot run's, because the frontier of a
    union is the frontier of the union of per-shard frontiers.
    @raise Invalid_argument on an empty list, a document without a
    frontier block, malformed members, or mismatched plans. *)
