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

(** {1 Device models}

    The models the 10 ms tick calls. They live in this compilation unit
    with the board so that the tick's calls into them inline and pass
    floats unboxed; [Board] re-exports each under its own name
    ([Board.Dvfs], [Board.Power], ...). Programs reach them only through
    the tick; they are exported so the board tests can check each model
    on its own against the paper's limits, the seams of DESIGN.md §15. *)

(** DVFS tables of the simulated Exynos 5422 big.LITTLE processor.

    The big (Cortex-A15) cluster runs 0.2-2.0 GHz and the little
    (Cortex-A7) cluster 0.2-1.4 GHz, both in 0.1 GHz steps, matching the
    ODROID XU3 ranges the paper actuates on. Voltage follows an affine
    frequency map fitted to published Exynos operating points; power
    scales as [C V^2 f]. *)
module Dvfs : sig
  type cluster = Big | Little

  val f_min : cluster -> float
  (** 0.2 GHz for both clusters. *)

  val f_max : cluster -> float
  (** 2.0 GHz (big) / 1.4 GHz (little). *)

  val quantize : cluster -> float -> float
  (** Project an arbitrary request onto the DVFS table. *)

  val voltage : cluster -> float -> float
  (** Supply voltage (V) at a given frequency (GHz). *)

  val transition_cost_s : float
  (** Wall-clock cost of a frequency change (PLL relock), in seconds. *)

  val hotplug_cost_s : float
  (** Wall-clock cost of turning a core on or off, in seconds. *)

  val core_count : int
  (** Four cores per cluster. *)
end

(** Core performance model.

    A thread's throughput on a core follows a roofline-flavoured law: at
    low frequency it scales with [ipc_peak * f]; as frequency rises, the
    memory-bound fraction of the instruction mix saturates against a
    fixed memory service rate, so the effective IPC falls. Multiplexing
    several threads on one core time-shares its throughput with a small
    context-switch penalty — the behaviour the software controller
    exploits when it packs threads to let the hardware controller power
    cores off. *)
module Perf : sig
  val core_throughput :
    kind:Dvfs.cluster ->
    freq:float ->
    mem_intensity:float ->
    ipc_scale:float ->
    threads_on_core:float ->
    float
  (** Instructions per second (in GIPS) retired by one core running
      [threads_on_core] runnable threads of the given character. Zero
      threads yields zero. *)

  val cluster_busy : cores_on:int -> threads:int -> threads_per_core:float -> int
  (** Non-idle cores of a cluster when [threads] threads are spread at
      [threads_per_core] per non-idle core (clamped to what [cores_on]
      allows); zero without threads or powered cores. *)

  val cluster_gips :
    kind:Dvfs.cluster ->
    freq:float ->
    busy:int ->
    threads:int ->
    mem_intensity:float ->
    ipc_scale:float ->
    float
  (** Aggregate GIPS of a cluster whose [threads] threads share the
      [busy] cores {!cluster_busy} gives; zero when [busy] is zero. *)
end

(** Power model of the simulated big.LITTLE processor.

    Per-cluster power is dynamic switching power [n_active C V^2 f a]
    (activity [a] from utilization) plus per-powered-core leakage that
    grows with temperature, plus a small uncore term. Calibrated so that
    the full big cluster at 2 GHz draws well above the paper's 3.3 W
    sustained limit and the little cluster at 1.4 GHz above its 0.33 W
    limit — the emergency heuristics must have something to do. *)
module Power : sig
  val cluster_power :
    Dvfs.cluster ->
    cores_on:int ->
    freq:float ->
    utilization:float ->
    temperature:float ->
    float
  (** Cluster power draw in watts with [cores_on] powered cores (hotplug,
      0-4) at [freq] GHz, [utilization] the mean busy fraction of the
      powered cores (0-1) and [temperature] in Celsius (for leakage).
      @raise Invalid_argument if [cores_on] is outside 0-4. *)
end

(** Two-node RC thermal model of the board.

    The hot spot sits on the big cluster: a fast node (seconds) tracks
    the power-weighted die heating and a slow node (tens of seconds)
    tracks package/heat-sink warm-up. Calibrated so that running exactly
    at the paper's power limits (3.3 W big + 0.33 W little) settles just
    below the 79C thermal limit, while an unconstrained burst overshoots
    and forces the emergency heuristics to act. *)
module Thermal : sig
  type t

  val ambient : float
  (** 30 C. *)

  val create : unit -> t
  (** Board at ambient. *)

  val step : t -> power_big:float -> power_little:float -> dt:float -> unit
  (** Advance the RC network by [dt] seconds under the given cluster
      powers. *)

  val temperature : t -> float
  (** Current hot-spot temperature (C). *)
end

(** Sensor emulation.

    The ODROID XU3's INA231 power sensors refresh every 260 ms; a
    controller sampling faster sees held values. Temperature is available
    on demand from the on-chip TMU, and instruction counts come from the
    per-core PMU via the perf API (we model them as exact over a window).
    Multiplicative noise on the power readings is a seam for the sensor
    tests: [Xu3.create] never sets it, so every program reads exact
    (held) powers. *)
module Sensors : sig
  type t

  val create : ?noise:float -> ?seed:int -> ?period:float -> unit -> t
  (** [noise] is the relative 1-sigma error on power readings (default
      0); [period] the refresh interval (default
      {!power_update_period}). *)

  val power_update_period : float
  (** 0.26 s. *)

  val refresh : t -> time:float -> power_big:float -> power_little:float -> unit
  (** Feed the true instantaneous cluster powers at the given simulation
      time: the held readings take them (noise applied) if the sensor is
      due a refresh, and keep their values otherwise. *)

  val read : t -> float * float
  (** The held (big, little) power readings. *)
end

(** The board's built-in emergency power/thermal heuristics.

    The Exynos TMU driver and the power-limit firmware trip when
    temperature or cluster power stay above preset thresholds; tripping
    clamps the cluster frequency hard (and, for thermal trips, also caps
    the core count) until a cooldown elapses. The paper deliberately
    keeps its controllers below the trip thresholds (its power limits of
    0.33/3.3 W and 79C are chosen just under them); controllers that
    overshoot — the Decoupled heuristic above all — ping-pong against
    this machinery, which is the source of the oscillations in
    Figure 10. *)
module Emergency : sig
  type t

  type action = {
    cap_freq_big : float option;     (** Forced big frequency, if tripped. *)
    cap_freq_little : float option;
    cap_big_cores : int option;      (** Forced core cap (thermal trip). *)
  }

  val thermal_trip : float
  (** 85 C: hard thermal trip threshold. *)

  val power_trip_big : float
  (** 4.2 W sustained trips the big cluster limiter. *)

  val power_trip_little : float
  (** 0.40 W sustained trips the little cluster limiter. *)

  val create : unit -> t

  val step :
    t ->
    ?cap:float ->
    dt:float ->
    temperature:float ->
    power_big:float ->
    power_little:float ->
    unit ->
    action
  (** Advance the trip state machine by [dt] and return the currently
      enforced caps (all [None] when not tripped).

      [?cap] is an externally imposed limit on {e total} board power
      (big + little), in watts — the per-board share of a rack budget.
      Sustained overage (the same [power_patience] window as the cluster
      limiters) trips a ["power_cap"] clamp on both clusters. Omitting
      [cap] leaves the trip machinery bit-identical to a build without
      it. *)

  val trip_count : t -> int
  (** Total trips since creation — a proxy for how badly a controller
      fights the emergency machinery. *)
end

(** {1 The board} *)

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
    frequency, threads split evenly). [seed] (default 17) seeds the
    power sensor's noise RNG; the board sets no sensor noise, so that
    RNG is never drawn from and every seed gives the same run.
    [sensor_period] overrides the power sensor's 260 ms refresh
    (sensitivity studies); [injector] attaches fault-injection hooks
    (default: none — zero overhead). *)

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
