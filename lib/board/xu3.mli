(** The big.LITTLE board simulator.

    This is the substitute for the physical ODROID XU3: a discrete-time
    simulation (10 ms internal step) of an 8-core big.LITTLE processor
    running a list of jobs, exposing exactly the knobs and signals the
    paper's controllers use.

    {b Actuation} (quantized like the real board): number of powered cores
    per cluster (1-4), per-cluster frequency (DVFS tables), and the thread
    placement triple — #threads on the big cluster, average threads per
    non-idle core in each cluster. Frequency changes and hotplug events
    cost dead time; placement changes cost migration time.

    {b Observation}: window-averaged BIPS per cluster (perf counters),
    cluster power through 260 ms sensors, instantaneous hot-spot
    temperature, and bookkeeping (energy, time, emergency trips).

    {b Built-in protection}: the emergency heuristics of {!Emergency}
    clamp frequency when power or temperature exceed the trip thresholds,
    exactly the machinery a bad controller ping-pongs against.

    Threads of concurrent jobs are assumed statistically interchangeable
    across cores (uniform mixing); this loses per-thread placement detail
    but preserves the aggregate dynamics the controllers observe. *)

type config = {
  big_cores : int;
  little_cores : int;
  freq_big : float;
  freq_little : float;
}

type placement = {
  threads_big : int;   (** Threads assigned to the big cluster; the rest run
                           little. Clamped to the live thread count. *)
  tpc_big : float;     (** Threads per non-idle big core (>= 1). *)
  tpc_little : float;
}

type outputs = {
  bips : float;          (** Total performance over the last window. *)
  bips_big : float;
  bips_little : float;
  power_big : float;     (** Power sensor reading (held between updates). *)
  power_little : float;
  temperature : float;
  threads_active : int;
  spare_big : float;     (** Spare compute capacity, Eq. 2 of the paper. *)
  spare_little : float;
}

type t

(** {1 Fault injection hooks}

    The board exposes its sensor and actuator surfaces to an optional
    injector so fault campaigns (the [Fault] library) can disturb a run
    without forking the simulator. Every hook is called with the current
    simulated time; the identity hooks are bit-transparent (an injector
    whose hooks are all identities produces runs bit-identical to an
    uninjected board). The board itself never constructs a non-identity
    injector — semantics live entirely with the caller. *)
type injector = {
  on_tick : time:float -> unit;
      (** Called at the top of every 10 ms simulation tick — the
          injector's clock (activate/clear timed faults, emit events). *)
  sense : time:float -> outputs -> outputs;
      (** Corrupt what the controllers observe ({!observe} /
          {!run_epoch}); the internal protection machinery still sees
          the true signals. *)
  transform_config : time:float -> current:config -> config -> config;
      (** Intercept a {!set_config} request (already clamped); [current]
          is the configuration the request would replace. Must return a
          valid (clamped) configuration — e.g. [current] for a stuck
          actuator, or an earlier request for a delayed one. *)
  transform_placement :
    time:float -> current:placement -> placement -> placement;
      (** Same for {!set_placement}. *)
  power_gain : time:float -> float;
      (** Multiplies the actual cluster power each tick (power-model
          gain drift: energy, sensors, thermal and protection all see
          the drifted plant). *)
  thermal_gain : time:float -> float;
      (** Additionally multiplies the power feeding the thermal model
          (thermal-resistance drift: a degraded heat path). *)
  perf_gain : time:float -> float;
      (** Multiplies the instruction retire rate (workload phase shift:
          an IPC drop the identified model never saw). *)
}

val create :
  ?seed:int ->
  ?sensor_period:float ->
  ?injector:injector ->
  Workload.t list ->
  t
(** Board at ambient, jobs loaded, default config (2+2 cores at mid
    frequency, threads split evenly). [sensor_period] overrides the power
    sensor's 260 ms refresh (sensitivity studies); [injector] attaches
    fault-injection hooks (default: none — zero overhead). *)

val set_config : t -> config -> unit
(** Request a hardware configuration; values are clamped/quantized to the
    board's tables, and changes incur transition dead time. *)

val set_placement : t -> placement -> unit

val config : t -> config
(** The currently requested configuration (before emergency clamping). *)

val effective_config : t -> config
(** What the hardware is actually running (after emergency clamping). *)

val placement : t -> placement

val set_power_cap : t -> float option -> unit
(** Impose (or lift, with [None]) an external cap on total board power in
    watts — a rack controller's per-board share of the shared budget.
    Enforcement is by {!Emergency}'s sustained-overage machinery
    (["power_cap"] trips clamp both clusters); boards that never receive
    a cap behave bit-identically to a build without this surface. *)

val step : t -> float -> unit
(** Advance the simulation by the given number of seconds (internally in
    10 ms ticks). No-op once finished. *)

val run_epoch : t -> float -> outputs
(** Advance one control epoch (e.g. 0.5 s) and return the signals a
    controller samples at its end. *)

val observe : t -> outputs
(** Signals over the window since the last [observe]/[run_epoch]. *)

val finished : t -> bool

val time : t -> float

val energy : t -> float
(** Joules consumed by the two clusters so far. *)

val trip_count : t -> int

val progress : t -> float
(** Fraction of total instructions retired, 0-1. *)

(** {1 Metrics} *)

type metrics = {
  execution_time : float;
  total_energy : float;
  energy_delay : float;  (** E x D. *)
  trips : int;
}

val metrics : t -> metrics
(** Valid once [finished]; meaningful anytime as "so far". *)

val spare_capacity : cores_on:int -> busy:int -> threads:int -> float
(** Eq. 2: [#idle_cores_on - (#threads - #cores_on)]. *)

val true_power : t -> float * float
(** Instantaneous (big, little) cluster power of the last simulation tick
    — the ground truth behind the sensors; used for trace figures. *)

val temperature : t -> float
(** True die temperature now. Unlike the [outputs] of {!observe}, this
    can never be corrupted by an injector's sensor faults — health
    monitors measure the plant, not the sensor. *)
