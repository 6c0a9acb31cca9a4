(** Reading and summarizing JSONL trace files written by {!Collector}. *)

type entry = {
  kind : string;   (** ["event"], ["span"], ["counter"], ... *)
  name : string;
  json : Json.t;   (** The whole record, for field access. *)
}

exception Bad_trace of string
(** Raised with the offending line number on malformed input. *)

val read_file : string -> entry list
(** Parse each non-blank line of [path]; raises {!Bad_trace} on a line
    that is not a JSON object with [type] and [name] strings. *)

type span_stat = {
  span_name : string;
  span_count : int;
  total_s : float;
  mean_s : float;
  max_s : float;
}

type event_stat = {
  event_name : string;
  event_count : int;
  first_sim_s : float;
  last_sim_s : float;
}

type summary = {
  spans : span_stat list;      (** Ordered by descending total time. *)
  events : event_stat list;    (** Ordered by descending count. *)
  metrics : entry list;        (** Counter/histogram records. *)
  dumps : entry list;          (** Flight-recorder dump records, in
                                   stream order. *)
  lines : int;
}

val summarize : entry list -> summary

val render : ?counters:bool -> summary -> string
(** Human-readable tables: span timing, event counts with simulated-time
    extents, the metric records, and a recorder-dump count. With
    [~counters:true], also one line per dump (simulated time, reason,
    window size) and a final-counter table — the [trace --counters]
    view. *)
