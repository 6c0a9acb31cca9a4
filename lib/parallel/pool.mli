(** A fixed-size domain pool for embarrassingly parallel evaluation
    grids and streaming fleet runs.

    The pool owns [jobs] worker domains (none when [jobs = 1]) that pull
    tasks from a shared queue. Work enters the pool through
    {!map_reduce}, a streaming ordered fold; {!map} is a thin wrapper
    that folds into a list. Both preserve the semantics of their serial
    counterparts — only faster:

    - {b deterministic ordering} — results are folded (or listed) in
      input order regardless of which worker finished first, so a fold
      into mergeable accumulators is byte-identical at any job count;
    - {b deterministic traces} — [Obs.Collector] lines reach the sink
      in input order too (see {!map_reduce});
    - {b bounded memory} — {!map_reduce} streams inputs through an
      in-flight window of [4 * jobs] slots; a thousand-element batch
      never materialises a thousand results;
    - {b exception capture} — a raising task never hangs the pool; the
      first exception (in input order) is re-raised in the caller with
      its original backtrace, after every {e issued} task has settled
      (inputs beyond the in-flight window are never started);
    - {b serial degeneration} — a pool created with [jobs = 1] spawns no
      domains, needs no {!shutdown}, and runs everything inline in the
      calling domain. Drivers that take [?pool] use a one-job pool when
      it is absent, so serial and parallel callers share one code path.

    The pool itself is domain-safe; the tasks must be too. Shared lazy
    state has to be forced {e before} fan-out (concurrent [Lazy.force]
    of one suspension raises in OCaml 5) — see [Yukta.Designs.prepare]
    and the cache notes in [DESIGN.md]. *)

type t
(** A pool handle. Values of this type are safe to share between
    domains, but batches are serialized internally: one {!map_reduce}
    (or {!map}) runs at a time. *)

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs - 1] worker domains plus the calling
    domain's share of the work (the caller participates in batches), so
    at most [jobs] tasks run at once.

    @raise Invalid_argument if [jobs < 1]. *)

val map_reduce :
  t ->
  map:('a -> 'b) ->
  init:'acc ->
  reduce:('acc -> 'b -> 'acc) ->
  'a list ->
  'acc
(** [map_reduce pool ~map ~init ~reduce xs] applies [map] to every
    element of [xs] on the pool's domains and folds each result into the
    accumulator with [reduce] {e in input order}, equivalent to
    [List.fold_left (fun acc x -> reduce acc (map x)) init xs].

    [map] runs on arbitrary domains; [reduce] always runs in the calling
    domain, one call at a time, in slot order — it needs no locking and
    may mutate the accumulator in place. With [jobs > 1] each [map]
    application runs under [Obs.Collector.capture] and its lines are
    replayed just before its result folds, so the trace stream is the
    one [jobs = 1] emits (modulo wall-clock span durations); a failing
    task's lines are dropped. At most [4 * jobs] results are
    in flight at once: input [i + 4*jobs] is not started before result
    [i] has been folded, so memory stays bounded for arbitrarily long
    batches.

    If a [map] application raises, issuance stops, every already-issued
    task settles, and the exception of the {e earliest} failing input
    re-raises with its original backtrace (later inputs may never run).
    A raising [reduce] likewise settles outstanding tasks before
    propagating. The pool remains usable afterwards. *)

val window : t -> int
(** [window pool] is [4 * jobs]: how many {!map_reduce} results are in
    flight at once. Work split into this many contiguous ranges is one
    wave of tasks per batch. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f xs] applies [f] to every element of [xs] on the pool's
    domains and returns the results in input order. Implemented as a
    {!map_reduce} fold into a list — exception semantics are inherited
    from it. *)

val shutdown : t -> unit
(** Join all worker domains. Idempotent; batches after [shutdown] raise
    [Invalid_argument]. Call before process exit so no domain outlives
    the main one. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and guarantees
    {!shutdown}, also on exceptions. *)
