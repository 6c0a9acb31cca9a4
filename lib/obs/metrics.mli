(** Process-global metric registry: counters and fixed-bucket histograms
    with percentile summaries.

    Metrics are cheap mutable cells looked up (or created) by name; sites
    on hot paths should hold the metric value and guard updates behind
    {!Collector.enabled} so a disabled run costs one branch. The registry
    survives {!reset_all} (values are zeroed, instances stay valid), so a
    metric captured at module-initialization time never dangles.

    Registration, updates, {!reset_all} and {!dump} are serialized by an
    internal mutex and safe to call from any domain (pool workers record
    spans concurrently). The read-only accessors ({!count} and
    {!percentile}) are unsynchronized snapshots — call them from the
    coordinating domain, not while workers observe. *)

(** {1 Counters} *)

type counter

val counter : string -> counter
(** Get or create the counter registered under [name]. *)

val incr : ?by:int -> counter -> unit

val count : counter -> int

(** {1 Histograms} *)

type histogram

val histogram : string -> histogram
(** Get or create. The bucket bounds are log-spaced, four per decade
    from 1 microsecond to 1000 seconds, suited to timing spans; values
    above the last bound land in an overflow bucket. *)

val observe : histogram -> float -> unit

val percentile : histogram -> float -> float
(** [percentile h q] for [q] in [0, 1], linearly interpolated within the
    containing bucket and clamped to the observed min/max; [nan] when the
    histogram is empty. *)

(** {1 Registry} *)

val reset_all : unit -> unit
(** Zero every registered metric (instances remain valid). *)

val dump : unit -> Json.t list
(** One JSON record per registered metric with a non-trivial value
    (counters at zero and empty histograms are skipped), sorted by name
    so snapshots diff stably across runs and job counts:
    [{"type":"counter","name":...,"value":...}] and
    [{"type":"histogram","name":...,"count":...,"mean":...,"p50":...}]. *)
