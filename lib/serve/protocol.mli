(** The serving wire protocol: newline-delimited JSON over a stream
    socket (reusing {!Obs.Json}). One request object per line in; one
    or more response lines out. {!request_of_line} is total — malformed
    input becomes an [Error] string the session answers with a
    non-fatal [error] record, never an exception. *)

(** An injected plant drift, scheduled at configure time: [start]
    (finite, [>= 0]) and [duration] ([> 0], default forever) in
    simulated seconds; [severity] a fraction of the certified
    guardband in [(0, 10]]; [kind] one of
    [power_gain]/[thermal_gain]/[perf_gain] (default [power_gain]). *)
type drift = {
  start : float;
  duration : float;
  severity : float;
  kind : string;
}

type request =
  | Hello of { client : string option }
  | Configure of {
      scheme : string;  (** Registry key ({!Yukta.Schemes.find}). *)
      app : string;     (** Workload or mix name (default blackscholes). *)
      adapt : bool;     (** Online ID + re-synthesis on drift (default
                            off). *)
      drift : drift option;
    }
  | Step of { count : int }  (** Epochs to step, [>= 1] (default 1). *)
  | Health
  | Drain
  | Close

val request_of_line : string -> (request, string) result
(** Parse one request line; [Error] describes what was malformed (bad
    JSON, unknown type, a field the request does not have, missing
    field, or a present field of the wrong type or range, named as
    [request.field]) and never raises. Only an absent field takes its
    default. *)

(** {1 Response encoders} — each returns one encoded line (no
    trailing newline). *)

val welcome : unit -> string
(** The greeting line: protocol version (1) and server identity; a
    client should refuse to speak to a server with a different
    version. *)

val configured :
  session:int -> scheme:string -> layers:string list -> adapt:bool -> string
(** Acknowledges [configure]: the session id, the resolved scheme and
    its layer labels, and whether adaptation is armed. *)

val error : ?fatal:bool -> string -> string
(** An error record; [fatal] (default [false]) tells the client the
    session is closing. *)

val busy : retry_after_ms:int -> string
(** Back-pressure: the server is at capacity; retry after the given
    delay. *)

val closed : unit -> string
(** Acknowledges [close]; the last line of a session. *)

val frame :
  epoch:int ->
  sim:float ->
  o:Board.Xu3.outputs ->
  config:Board.Xu3.config ->
  placement:Board.Xu3.placement ->
  done_:bool ->
  string
(** One epoch's result: the sensor observation and the actuation
    decision in force after the layers stepped. *)

val end_of_run :
  sim:float -> metrics:Board.Xu3.metrics -> completed:bool -> string
(** Response to a [step] past the end of the workloads. *)

val drained :
  epochs:int ->
  sim:float ->
  metrics:Board.Xu3.metrics ->
  completed:bool ->
  string
(** Response to [drain]: the run stepped to completion (or the
    horizon), with final metrics. *)

val health_snapshot : Obs.Health.t -> string
(** Response to [health]: the current per-layer monitor values
    ({!Obs.Health.to_json}). *)

val adapt_notification :
  name:string ->
  epoch:int ->
  sim:float ->
  (string * Obs.Json.t) list ->
  string
(** Out-of-band adaptation notice ([adapt.drift], [adapt.swap],
    [adapt.failed]) appended after the frame that triggered it. *)
