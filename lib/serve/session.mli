(** One serving session: a transport-free request-line → response-line
    state machine over a server-hosted scheme run.

    Lifecycle: [hello] → [configure] (builds a fresh
    {!Yukta.Stack.stepper} over a new board, optionally with an
    injected plant drift and an {!Adapt} engine) → any number of
    [step]/[health] → [drain] or [close].

    The split between {!enqueue} and {!process} is what lets one
    single-threaded server loop host many sessions fairly:

    - {!enqueue} applies {e backpressure}: past 64 buffered request
      lines it rejects with a [busy] response carrying
      [retry_after_ms = 50] instead of buffering without bound;
    - {!process} drains the queue under an {e epoch budget}; a [step]
      larger than the remaining budget is split, its remainder carried
      to the next call, so a greedy session cannot starve others. A
      [drain] streams the rest of the run under the same budget across
      as many {!process} calls as it takes, and is additionally capped
      at [Stack.run]'s default simulated [max_time] — a degraded plant
      that never finishes cannot spin the server forever (the [drained]
      summary then reports [completed = false]).

    Request handling is crash-isolated: a malformed line or an
    exception inside a handler becomes a non-fatal [error] response and
    the session keeps serving. *)

type t

val create : id:int -> unit -> t
(** A fresh, unconfigured session. *)

val enqueue : t -> string -> [ `Accepted | `Rejected of string ]
(** Buffer one request line. [`Rejected line] carries the response to
    send immediately: [busy] when the queue is full, a fatal [error]
    when the session is closed. *)

val process : ?budget:int -> t -> string list
(** Handle queued requests, stepping at most [budget] epochs (default
    unlimited), and return the response lines in order. Stops early
    when the budget is exhausted; call again (possibly after serving
    other sessions) to continue. *)

val pending : t -> int
(** Queued requests not yet fully processed (including a budget-split
    [step] remainder). *)

val closed : t -> bool
(** The session saw [close] (or {!finish}); it answers nothing more. *)

val frames_served : t -> int
(** Frame lines emitted so far (one per stepped epoch). *)

val errors : t -> int
(** Malformed or mis-sequenced requests answered with an [error] line. *)

val swaps : t -> int
(** Adaptive controller swaps performed by this session's run. *)

val finish : t -> unit
(** Force-close: join any in-flight synthesis and mark the session
    closed. Idempotent; the server calls this on disconnect. *)
