(** The bounded flight recorder.

    A ring buffer that retains the last [capacity] simulated-time event
    records per domain, so an emergency trip or injected fault can dump
    the window that led up to it — causal context without paying for
    full tracing. {!Collector.event} feeds the ring whenever the
    recorder is enabled, even when the collector itself is disabled, so
    recording costs one extra atomic load per instrumentation site plus
    a ring store per emitted event.

    Rings are per-domain (no locks on the hot path); the retained dump
    records are process-global behind a mutex, which is fine because
    dumps only happen on trips and faults.

    Dumps are deterministic: a dump record carries only simulated-time
    data, and when the collector is enabled it is emitted through the
    collector's sink — inside any active {!Collector.capture} scope —
    so parallel replays stay byte-identical. *)

val enabled : unit -> bool
(** One atomic load. *)

val enable : ?capacity:int -> unit -> unit
(** Start recording. [capacity] (default [64]) is the per-domain window
    length in events. At most 64 dump records are retained in memory
    (oldest kept — the first trips are the interesting ones; later
    dumps are still emitted to the collector sink, just not retained).
    @raise Invalid_argument when [capacity < 1]. *)

val disable : unit -> unit
(** Stop recording. Rings and retained dumps survive until {!clear} so
    they can still be inspected. *)

(** {1 Dump triggers}

    Instrumentation sites never call {!dump} directly: they register the
    event-name prefixes whose arrival should snapshot the window, and
    the collector's feed ({!note_event}) does the rest. New trigger
    vocabularies (e.g. [adapt.swap]) register a prefix at module-init
    time instead of patching the recorder. *)

val register_trigger : ?suffix_field:string -> string -> unit
(** [register_trigger prefix] makes every event whose name starts with
    [prefix] a dump trigger. The dump reason is the event name; with
    [suffix_field], the named string field of the event is appended as
    [name ^ ":" ^ value] when present (e.g. [emergency.trip:thermal]).
    Process-global and idempotent.
    @raise Invalid_argument on an empty prefix. *)

val triggers : unit -> (string * string option) list
(** Registered [(prefix, suffix_field)] pairs, in registration order. *)

val note_event : name:string -> sim:float -> Json.t -> unit
(** Append the record to this domain's ring (evicting the oldest when
    full), then {!dump} if [name] matches a registered trigger prefix —
    the triggering event sits in the dumped window, last. This is
    {!Collector.event}'s feed; no-op when disabled. *)

val window : unit -> Json.t list
(** This domain's current ring contents, oldest first. *)

val dump : reason:string -> sim:float -> unit
(** Snapshot this domain's window into a dump record

    [{"type":"dump","name":"recorder.dump","sim_s":...,
      "fields":{"reason":...,"events":N,"window":[...]}}],

    retain it (subject to the 64-dump retention bound) and hand it to the emitter
    installed by {!set_emitter} (the collector forwards it to its sink
    when tracing is on). No-op when disabled. The ring is left intact:
    overlapping windows across nearby trips are intentional. *)

val dumps : unit -> Json.t list
(** Retained dump records, oldest first (across all domains, in dump
    order). *)

val dump_count : unit -> int
(** Total dumps taken since the last {!clear} — counts past the
    64-dump retention bound. *)

val clear : unit -> unit
(** Empty this domain's ring and drop all retained dumps, resetting
    {!dump_count}. *)

val set_emitter : (Json.t -> unit) -> unit
(** Install the downstream for dump records. Wired by {!Collector} at
    module initialization; tests may override it. *)
