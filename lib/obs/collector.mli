(** The process-global telemetry collector.

    Collection is {e explicitly enabled} and disabled by default; every
    instrumentation site in the stack guards its emission with
    {!enabled}, which reads a single atomic flag, so a disabled run pays
    one branch and allocates nothing. Callers must follow the same
    discipline: build field lists {e inside} an [if Collector.enabled ()]
    branch, never before it.

    Two time domains keep run traces deterministic:

    - {b simulated-time events} ({!event}) carry the board's simulated
      clock and never read the wall clock — two runs of the same
      experiment produce byte-identical event streams;
    - {b wall-clock spans} ({!span}, {!record_span}) time synthesis-side
      code (D-K iteration, H-infinity bisection, experiment drivers)
      where wall time is the measurement.

    Records are encoded as JSONL and handed to the current sink — an
    in-memory buffer by default (see {!drain}), or a file via
    {!with_collection}.

    {b Domain safety.} The sink, buffer and file handle are
    process-global and every access is serialized by an internal mutex,
    so concurrent emission from several domains never tears a line. For
    {e reproducible} traces under parallelism, serialization is not
    enough — arrival order would still depend on scheduling — so
    [Parallel.Pool.map_reduce] wraps each task in {!capture} (a
    per-domain buffer that bypasses the global sink) and hands the
    captured lines to {!replay} in task input order as each result
    folds. Span nesting depth is per-domain. *)

val enabled : unit -> bool
(** One atomic load; the only cost a disabled instrumentation site pays. *)

val observing : unit -> bool
(** [enabled () || Recorder.enabled ()] — the guard for sites whose
    events should also reach the flight recorder (board, emergency,
    fault-injection and runtime epoch events). Two atomic loads. *)

val enable : unit -> unit

val disable : unit -> unit

(** {1 Sinks} *)

val set_sink : (string -> unit) -> unit
(** Route encoded JSONL lines (no trailing newline) to [f]. Replaces the
    default in-memory buffer. *)

val buffer_sink : unit -> unit
(** Restore the default in-memory buffer sink (clearing it). *)

val drain : unit -> string list
(** Lines accumulated by the buffer sink, oldest first; clears the
    buffer. Empty when a custom sink is installed. *)

(** {1 Per-domain capture}

    The building blocks of deterministic parallel tracing: run each
    parallel task under {!capture}, then {!replay} the captured lines in
    input order — the resulting stream is byte-identical to a serial
    run's (modulo wall-clock span durations). *)

val capture : (unit -> 'a) -> 'a * string list
(** [capture f] runs [f] with this domain's emissions diverted to a
    fresh local buffer and returns [f]'s result with the captured JSONL
    lines, oldest first. Captures nest (the inner scope shadows the
    outer); other domains are unaffected. If [f] raises, the capture
    scope is popped and the exception propagates (captured lines are
    dropped with it). *)

val replay : string list -> unit
(** Hand already-encoded lines to the current sink in list order — or to
    this domain's active {!capture} scope, so replays nest. *)

(** {1 Emission} *)

val event : name:string -> sim:float -> (unit -> (string * Json.t) list) -> unit
(** Simulated-time event: [{"type":"event","name":...,"sim_s":...,
    "fields":{...}}]. Emitted to the sink when {!enabled}; also noted in
    the {!Recorder} ring when that is enabled. The field list is a
    thunk, forced only when a sink will consume it — uninstrumented runs
    pay one closure per call site, never the JSON construction. Sites
    whose fields are expensive to even close over may still guard on
    {!observing}. *)

val debug : name:string -> (string * Json.t) list -> unit
(** Diagnostic record with neither time domain attached:
    [{"type":"debug","name":...,"fields":{...}}] — for rare anomalies
    in synthesis-side code (no simulated clock, wall time meaningless),
    e.g. an iteration hitting its cap without converging. No-op when
    disabled. *)

val now : unit -> float
(** Monotonic seconds since an arbitrary origin — for durations only.
    Immune to NTP steps; not comparable across processes. *)

val record_span : name:string -> dur_s:float -> (string * Json.t) list -> unit
(** Record an already-measured wall-clock span; also feeds the
    [span.<name>] histogram so {!Metrics.dump} carries timing summaries.
    No-op when disabled. *)

val span : name:string -> (unit -> 'a) -> 'a
(** Time [f ()] and record it as a span (with its nesting [depth]).
    When disabled, calls [f] directly. Exceptions propagate; the span is
    still recorded with an ["raised"] field. *)

(** {1 Scoped collection} *)

val with_collection : ?file:string -> (unit -> 'a) -> 'a
(** Reset metrics, enable collection (to [file] if given), run [f], dump
    metrics, close the file and disable — restoring the previous
    enabled/sink state even on exceptions. *)
