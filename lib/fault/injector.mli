(** The runtime fault machine.

    An injector replays one {!Schedule} against one board execution by
    implementing the {!Board.Xu3.injector} hook record: it activates and
    clears timed faults as the simulated clock advances (emitting
    [fault.inject] / [fault.clear] Obs events and counters), corrupts
    sensor observations, intercepts actuation requests, and reports the
    plant-drift gains.

    One injector is {e one run's worth of state} (held sensor values,
    pending delayed commands, activation flags): build a fresh one per
    execution — {!Campaign} does — and never share one across runs. An
    injector over an empty schedule is bit-transparent: runs through it
    are bit-identical to uninjected runs. *)

type t

val make : Spec.timed list -> t
(** Drift severities resolve to plant gains at
    {!Schedule.default_guardband}. *)

val hooks : t -> Board.Xu3.injector
(** The hook record to pass to [Xu3.create] / [Stack.run]. *)

val injections : t -> int
(** Faults activated so far in this run. *)
