(** Robustness campaigns: replay one fault schedule against every given
    scheme and report degradation relative to each scheme's own clean
    run.

    This is the regenerable form of the paper's robustness argument
    (Section V): inside the design guardband the SSV schemes' deviation
    guarantees still hold, so they should degrade least; outside it
    nobody has guarantees and the campaign measures who fails
    gracefully. Each scheme runs twice — once clean, once under a fresh
    {!Injector} over the same schedule — so inflation numbers are
    self-normalized and schedule replay is exact across schemes. *)

type outcome = {
  scheme : Yukta.Schemes.info;
  clean : Board.Xu3.metrics;       (** The scheme's own unfaulted run. *)
  faulted : Board.Xu3.metrics;
  survived : bool;                 (** Faulted run completed in time. *)
  exd_inflation : float;           (** faulted E x D / clean E x D. *)
  extra_trips : int;               (** Emergency trips added by faults. *)
  recovery_s : float option;
      (** Seconds after the last fault clears until the per-epoch E x D
          rate returns to within 20% of its pre-fault mean; [Some 0.] if
          the workload finished before the faults cleared; [None] if it
          never recovers (or no pre-fault reference exists). *)
  injections : int;                (** Faults that actually activated. *)
}

val run :
  ?max_time:float ->
  ?pool:Parallel.Pool.t ->
  schemes:Yukta.Schemes.info list ->
  workloads:Board.Workload.t list ->
  Spec.timed list ->
  outcome list
(** One clean + one faulted execution per scheme, every faulted run
    replaying the identical schedule through a fresh injector. Every
    scheme's stack is built once before fan-out; schemes then run on
    [pool] (a one-job pool when absent; clean and faulted runs stay
    paired in one cell) and outcomes return in scheme order,
    byte-identical at any job count. *)

val least_inflated : outcome list -> outcome option
(** The scheme with the smallest E x D inflation — the campaign's
    "winner" recorded in the JSON. *)

val to_json : schedule:Spec.timed list -> outcome list -> Obs.Json.t
(** Deterministic (simulated-time-only) JSON: the schedule, per-scheme
    outcomes, and the least-inflated scheme. *)
