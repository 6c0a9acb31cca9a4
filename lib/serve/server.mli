(** The serving front end: a single-threaded [Unix.select] loop
    multiplexing NDJSON connections over a Unix or TCP socket, one
    {!Session} per connection.

    Sessions are fully isolated from each other: a malformed message, a
    handler crash, or a mid-stream disconnect affects only its own
    connection — the loop and every other session keep running. Each
    iteration gives every session at most [step_budget] epochs, so a
    session streaming a huge [step] shares the loop fairly. Idle
    connections (no traffic, nothing queued) are closed with a fatal
    [idle timeout] error after [idle_timeout] seconds. *)

type address = Unix_path of string | Tcp of string * int
(** [Tcp ("", port)] / [Tcp ("*", port)] bind the loopback address;
    port [0] binds an ephemeral port (see {!port}). *)

type t

val create : ?idle_timeout:float -> ?step_budget:int -> address -> t
(** Bind and listen. [idle_timeout] (default 30 s) sweeps silent
    connections; [step_budget] (default 256) is the per-session epoch
    budget per loop iteration. A request line may be at most 64 KiB —
    an unframed peer is disconnected with a fatal error
    instead of growing the buffer forever. A pre-existing Unix socket
    path is unlinked first (and removed again on shutdown).
    @raise Invalid_argument on a non-positive or NaN [idle_timeout] or
    a non-positive [step_budget]; [Unix.Unix_error] when the bind
    fails. *)

val address : t -> Unix.sockaddr
(** The bound address (after ephemeral-port resolution). *)

val port : t -> int option
(** The bound TCP port; [None] for a Unix socket. *)

val run : ?once:bool -> t -> unit
(** Serve until {!stop} is called (from a signal handler, typically).
    With [once], return after the first accepted connection — and any
    concurrent ones — have all disconnected: the CI smoke mode. Always
    closes every connection and the listening socket (removing a Unix
    socket file) before returning, including on exceptions. *)

val iterate : ?timeout:float -> t -> unit
(** One loop iteration (select, read, process, write, sweep) waiting at
    most [timeout] (default 0.2 s) — exposed for tests that drive the
    loop inline. *)

val stop : t -> unit
(** Make {!run} return after the current iteration. Safe to call from
    a signal handler. *)

type stats = {
  accepted : int;  (** Connections accepted. *)
  active : int;    (** Connections open now. *)
  frames : int;    (** Frame lines sent, one per stepped epoch. *)
  swaps : int;     (** Adaptive controller swaps. *)
  errors : int;    (** Requests answered with an [error] line. *)
}

val stats : t -> stats
(** Totals over the server lifetime, including live sessions. *)
