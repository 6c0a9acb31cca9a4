(* The device models the 10 ms tick calls and the board that ties them
   together share this one compilation unit on purpose. dune's default
   (dev) profile compiles every module with [-opaque], so a call into
   another file is an unknown-function call that boxes each float
   argument and result, and no [@inline] crosses a file. Here the
   per-tick helpers inline into [one_tick], whose untripped path then
   allocates nothing (test/test_board.ml pins it at zero minor words).
   Helpers that must stay inlinable hold no closure: Closure-mode
   inlining refuses such bodies, so the Obs-instrumented slow paths
   ([Sensors.refresh_event], [Emergency.register_trip]) live out of
   line. *)

module Dvfs = struct
  type cluster = Big | Little

  let f_min _ = 0.2

  let f_max = function Big -> 2.0 | Little -> 1.4

  let f_step = 0.1

  let channel c =
    Control.Quantize.make ~minimum:(f_min c) ~maximum:(f_max c) ~step:f_step

  let quantize c f = Control.Quantize.project (channel c) f

  (* Near-flat V/F map of the low-power bins: the board operates in a
     leakage-dominated regime where supply voltage barely scales with
     frequency, so cluster power grows essentially linearly in f. This is
     what keeps the energy-delay optimum of compute-bound work at the
     power cap (as on the paper's board) rather than at mid frequency. *)
  let[@inline] voltage c f =
    match c with
    | Big -> 1.03 +. (0.01 *. f)
    | Little -> 1.02 +. (0.012 *. f)

  let transition_cost_s = 0.0005

  let hotplug_cost_s = 0.002

  let core_count = 4
end

module Perf = struct
  let[@inline] ipc_peak = function Dvfs.Big -> 2.0 | Dvfs.Little -> 0.9

  (* Memory saturation coefficient: how fast effective IPC degrades as
     frequency grows for memory-bound work. The big core generates more
     outstanding traffic per GHz. *)
  let[@inline] mem_beta = function Dvfs.Big -> 0.5 | Dvfs.Little -> 0.4

  (* Throughput lost per extra thread multiplexed on a core (context
     switches, cache thrash). *)
  let multiplex_penalty = 0.18

  let[@inline] core_throughput ~kind ~freq ~mem_intensity ~ipc_scale
      ~threads_on_core =
    if threads_on_core <= 0.0 then 0.0
    else begin
      let ipc_eff =
        ipc_peak kind *. ipc_scale
        /. (1.0 +. (mem_intensity *. mem_beta kind *. freq))
      in
      let sharing =
        Float.max 0.5 (1.0 -. (multiplex_penalty *. (threads_on_core -. 1.0)))
      in
      ipc_eff *. freq *. sharing
    end

  let[@inline] cluster_busy ~cores_on ~threads ~threads_per_core =
    if threads <= 0 || cores_on <= 0 then 0
    else begin
      let tpc = Float.max 1.0 threads_per_core in
      let cores_wanted = int_of_float (ceil (Float.of_int threads /. tpc)) in
      Int.min cores_on (Int.max 1 cores_wanted)
    end

  let[@inline] cluster_gips ~kind ~freq ~busy ~threads ~mem_intensity
      ~ipc_scale =
    if busy = 0 then 0.0
    else begin
      let actual_tpc = Float.of_int threads /. Float.of_int busy in
      core_throughput ~kind ~freq ~mem_intensity ~ipc_scale
        ~threads_on_core:actual_tpc
      *. Float.of_int busy
    end
end

module Power = struct
  (* Effective switching capacitance per core in nF-equivalents chosen so
     that 4 A15 cores at 2 GHz / 1.25 V draw about 5.5 W dynamic and
     4 A7 cores at 1.4 GHz / 1.2 V about 0.45 W. *)
  let[@inline] cap_per_core = function Dvfs.Big -> 0.46 | Dvfs.Little -> 0.062

  (* Leakage per powered core at 45C, in watts, with a linear temperature
     coefficient (a linearization of the exponential subthreshold term
     over the 40-90C band the board operates in). *)
  let[@inline] leak_per_core = function Dvfs.Big -> 0.055 | Dvfs.Little -> 0.008

  let leak_temp_coeff = 0.012

  (* Cluster-shared (uncore/L2) power when any core is powered. *)
  let[@inline] uncore = function Dvfs.Big -> 0.08 | Dvfs.Little -> 0.015

  (* Idle-but-powered cores still clock-gate most of the pipeline; they
     see a fraction of the busy activity factor. *)
  let idle_activity = 0.12

  let[@inline] cluster_power kind ~cores_on ~freq ~utilization ~temperature =
    if cores_on < 0 || cores_on > Dvfs.core_count then
      invalid_arg "Power.cluster_power: cores_on out of range";
    if cores_on = 0 then 0.0
    else begin
      let utilization = Float.min 1.0 (Float.max 0.0 utilization) in
      let v = Dvfs.voltage kind freq in
      let activity = idle_activity +. ((1.0 -. idle_activity) *. utilization) in
      let dynamic =
        Float.of_int cores_on *. cap_per_core kind *. v *. v *. freq *. activity
      in
      let leak_scale = 1.0 +. (leak_temp_coeff *. (temperature -. 45.0)) in
      let leakage =
        Float.of_int cores_on *. leak_per_core kind *. Float.max 0.2 leak_scale
      in
      dynamic +. leakage +. uncore kind
    end
end

module Thermal = struct
  type t = {
    mutable hotspot : float;
    mutable package : float;
    (* Decay factors for the last-seen [dt]: the simulator steps with a
       fixed 10 ms tick, so the two [exp] calls per step — the bulk of
       its cost — are cached. A different [dt] recomputes, so results
       are always exactly [exp (-dt/tau)]. *)
    mutable last_dt : float;
    mutable a_hot : float;
    mutable a_pkg : float;
  }

  let ambient = 30.0

  (* Thermal resistances (C/W) and time constants (s). The hot-spot node
     weighs the big cluster fully and the little cluster at half (it sits
     off the hot spot); the package node sees total power. *)
  let r_hot = 7.5

  let r_pkg = 6.2

  let tau_hot = 2.5

  let tau_pkg = 18.0

  let little_weight = 0.5

  let create () =
    { hotspot = 0.0; package = 0.0; last_dt = nan; a_hot = 0.0; a_pkg = 0.0 }

  let[@inline] weighted power_big power_little =
    power_big +. (little_weight *. power_little)

  (* Exact first-order update over dt (stable for any dt). *)
  let[@inline] blend a current target = (a *. current) +. ((1.0 -. a) *. target)

  let[@inline] step t ~power_big ~power_little ~dt =
    if dt <= 0.0 then invalid_arg "Thermal.step: dt must be positive";
    let target_hot = r_hot *. weighted power_big power_little in
    let target_pkg = r_pkg *. (power_big +. power_little) in
    if dt <> t.last_dt then begin
      t.a_hot <- exp (-.dt /. tau_hot);
      t.a_pkg <- exp (-.dt /. tau_pkg);
      t.last_dt <- dt
    end;
    t.hotspot <- blend t.a_hot t.hotspot target_hot;
    t.package <- blend t.a_pkg t.package target_pkg

  let[@inline] temperature t = ambient +. t.hotspot +. t.package
end

module Sensors = struct
  (* The held readings and their clock are all floats: in their own
     record each refresh stores them as flat doubles, with no boxing and
     no write barrier. *)
  type held = {
    mutable last_update : float;
    mutable big : float;
    mutable little : float;
  }

  type t = {
    noise : float;
    period : float;
    rng : Random.State.t;
    mutable initialized : bool;
    held : held;
  }

  let power_update_period = 0.26

  let create ?(noise = 0.0) ?(seed = 17) ?(period = power_update_period) () =
    if period <= 0.0 then invalid_arg "Sensors.create: period must be positive";
    {
      noise;
      period;
      rng = Random.State.make [| seed |];
      initialized = false;
      held = { last_update = 0.0; big = 0.0; little = 0.0 };
    }

  let noisy t x =
    (* Sum of three uniforms approximates a Gaussian well enough here. *)
    let u () = Random.State.float t.rng 2.0 -. 1.0 in
    let g = (u () +. u () +. u ()) /. 1.732 in
    Float.max 0.0 (x *. (1.0 +. (t.noise *. g)))

  let[@inline] corrupt t x = if t.noise = 0.0 then x else noisy t x

  let refreshes_metric = Obs.Metrics.counter "sensors.power_refreshes"

  let refresh_event t =
    Obs.Metrics.incr refreshes_metric;
    Obs.Collector.event ~name:"sensors.refresh" ~sim:t.held.last_update
      (fun () ->
        [
          ("power_big", Obs.Json.Float t.held.big);
          ("power_little", Obs.Json.Float t.held.little);
        ])

  let[@inline] refresh t ~time ~power_big ~power_little =
    let h = t.held in
    if (not t.initialized) || time -. h.last_update >= t.period then begin
      h.big <- corrupt t power_big;
      h.little <- corrupt t power_little;
      h.last_update <- time;
      t.initialized <- true;
      (* [observing], not [enabled]: the refresh event must also feed the
         flight recorder when only the recorder is on. *)
      if Obs.Collector.observing () then refresh_event t
    end

  let read t = (t.held.big, t.held.little)
end

module Emergency = struct
  type action = {
    cap_freq_big : float option;
    cap_freq_little : float option;
    cap_big_cores : int option;
  }

  (* All-float so the per-tick state updates are plain stores (no float
     boxing, no write barrier) — this runs every 10 ms simulated tick. *)
  type fstate = {
    mutable over_power_big_s : float;  (* Continuous time above threshold. *)
    mutable over_power_little_s : float;
    mutable over_cap_s : float;        (* Time above the external cap. *)
    mutable cap_cooldown : float;      (* Remaining cap clamp time. *)
    mutable thermal_cooldown : float;  (* Remaining thermal clamp time. *)
    mutable power_cooldown_big : float;
    mutable power_cooldown_little : float;
    mutable last_trip_time : float;    (* For escalation. *)
    mutable escalation : float;        (* Clamp-duration multiplier. *)
    mutable clock : float;
  }

  type t = { f : fstate; mutable trips : int }

  let thermal_trip = 85.0

  let power_trip_big = 4.2

  let power_trip_little = 0.40

  (* Sustained-overage window before a power trip fires. *)
  let power_patience = 0.6

  let thermal_clamp_s = 3.0

  let power_clamp_s = 2.5

  (* Repeated trips escalate: a controller that keeps slamming into the
     protection machinery gets clamped for progressively longer, as the
     vendor trip tables do. The multiplier decays back once trips
     stop. *)
  let escalation_window = 6.0

  let escalation_max = 4.0

  let create () =
    {
      f =
        {
          over_power_big_s = 0.0;
          over_power_little_s = 0.0;
          over_cap_s = 0.0;
          cap_cooldown = 0.0;
          thermal_cooldown = 0.0;
          power_cooldown_big = 0.0;
          power_cooldown_little = 0.0;
          last_trip_time = neg_infinity;
          escalation = 1.0;
          clock = 0.0;
        };
      trips = 0;
    }

  let trips_metric = Obs.Metrics.counter "emergency.trips"

  (* A trip is a flight-recorder dump trigger: the window that led up to
     it (the trip event itself included) is the recorder's reason to
     exist. Registered once here; the collector feed does the
     dumping. *)
  let () = Obs.Recorder.register_trigger ~suffix_field:"kind" "emergency.trip"

  let register_trip t ~kind ~value =
    t.trips <- t.trips + 1;
    if t.f.clock -. t.f.last_trip_time < escalation_window then
      t.f.escalation <- Float.min escalation_max (t.f.escalation *. 1.5)
    else t.f.escalation <- 1.0;
    t.f.last_trip_time <- t.f.clock;
    if Obs.Collector.observing () then begin
      Obs.Metrics.incr trips_metric;
      Obs.Collector.event ~name:"emergency.trip" ~sim:t.f.clock (fun () ->
          [
            ("kind", Obs.Json.String kind);
            ("value", Obs.Json.Float value);
            ("trip_index", Obs.Json.Int t.trips);
            ("escalation", Obs.Json.Float t.f.escalation);
          ])
    end

  (* Every verdict [step] can return is one of these five shared
     constants, so no tick — untripped or clamped — allocates one, and a
     clamp that holds returns the very action it returned last tick. *)
  let no_caps =
    { cap_freq_big = None; cap_freq_little = None; cap_big_cores = None }

  let thermal_caps =
    {
      cap_freq_big = Some 0.5;
      cap_freq_little = Some 0.3;
      cap_big_cores = Some 2;
    }

  let both_caps =
    { cap_freq_big = Some 0.6; cap_freq_little = Some 0.4; cap_big_cores = None }

  let big_caps =
    { cap_freq_big = Some 0.6; cap_freq_little = None; cap_big_cores = None }

  let little_caps =
    { cap_freq_big = None; cap_freq_little = Some 0.4; cap_big_cores = None }

  let[@inline] step t ?cap ~dt ~temperature ~power_big ~power_little () =
    let f = t.f in
    f.clock <- f.clock +. dt;
    (* Cooldowns tick first. *)
    f.thermal_cooldown <- Float.max 0.0 (f.thermal_cooldown -. dt);
    f.power_cooldown_big <- Float.max 0.0 (f.power_cooldown_big -. dt);
    f.power_cooldown_little <- Float.max 0.0 (f.power_cooldown_little -. dt);
    (* The externally imposed board cap (rack apportionment) guards total
       board power with the same sustained-overage machinery as the
       per-cluster limiters. With no cap the two fields never leave 0.0,
       so cap-less runs are bit-identical to the pre-cap behaviour. *)
    (match cap with
    | None ->
      if f.over_cap_s <> 0.0 then f.over_cap_s <- 0.0;
      f.cap_cooldown <- Float.max 0.0 (f.cap_cooldown -. dt)
    | Some cap ->
      f.cap_cooldown <- Float.max 0.0 (f.cap_cooldown -. dt);
      let total = power_big +. power_little in
      if total > cap then f.over_cap_s <- f.over_cap_s +. dt
      else f.over_cap_s <- 0.0;
      if f.over_cap_s >= power_patience && f.cap_cooldown = 0.0 then begin
        register_trip t ~kind:"power_cap" ~value:total;
        f.cap_cooldown <- power_clamp_s *. f.escalation;
        f.over_cap_s <- 0.0
      end);
    (* Thermal trip is immediate. *)
    if temperature >= thermal_trip && f.thermal_cooldown = 0.0 then begin
      register_trip t ~kind:"thermal" ~value:temperature;
      f.thermal_cooldown <- thermal_clamp_s *. f.escalation
    end;
    (* Power trips need sustained overage. *)
    if power_big > power_trip_big then
      f.over_power_big_s <- f.over_power_big_s +. dt
    else f.over_power_big_s <- 0.0;
    if f.over_power_big_s >= power_patience && f.power_cooldown_big = 0.0
    then begin
      register_trip t ~kind:"power_big" ~value:power_big;
      f.power_cooldown_big <- power_clamp_s *. f.escalation;
      f.over_power_big_s <- 0.0
    end;
    if power_little > power_trip_little then
      f.over_power_little_s <- f.over_power_little_s +. dt
    else f.over_power_little_s <- 0.0;
    if
      f.over_power_little_s >= power_patience && f.power_cooldown_little = 0.0
    then begin
      register_trip t ~kind:"power_little" ~value:power_little;
      f.power_cooldown_little <- power_clamp_s *. f.escalation;
      f.over_power_little_s <- 0.0
    end;
    (* A thermal clamp caps both clusters and the big core count; the
       power limiters cap their own cluster and the board cap both. *)
    if f.thermal_cooldown > 0.0 then thermal_caps
    else begin
      let big = f.power_cooldown_big > 0.0 || f.cap_cooldown > 0.0 in
      let little = f.power_cooldown_little > 0.0 || f.cap_cooldown > 0.0 in
      if big then if little then both_caps else big_caps
      else if little then little_caps
      else no_caps
    end

  let trip_count t = t.trips
end

type config = {
  big_cores : int;
  little_cores : int;
  freq_big : float;
  freq_little : float;
}

type placement = { threads_big : int; tpc_big : float; tpc_little : float }

type outputs = {
  bips : float;
  bips_big : float;
  bips_little : float;
  power_big : float;
  power_little : float;
  temperature : float;
  threads_active : int;
  spare_big : float;
  spare_little : float;
}

(* The per-tick remaining-work float lives in its own all-float record:
   stored in [job] (a mixed record) each [<-] would box and run the
   write barrier on every retire pass. *)
type job_rem = { mutable ginst : float }

type job = {
  workload : Workload.t;
  mutable phases_left : Workload.phase list;
  rem : job_rem;  (* Ginst left in the current phase. *)
}

type injector = {
  on_tick : time:float -> unit;
  sense : time:float -> outputs -> outputs;
  transform_config : time:float -> current:config -> config -> config;
  transform_placement :
    time:float -> current:placement -> placement -> placement;
  power_gain : time:float -> float;
  thermal_gain : time:float -> float;
  perf_gain : time:float -> float;
}

(* The per-tick mutable floats live in their own all-float record: OCaml
   stores such records as flat doubles, so each [<-] below is a plain
   store — in the mixed record they would box a fresh float and run the
   write barrier on every one of the ~10 updates per 10 ms tick, which
   profiles as the simulator's single largest cost. *)
type accum = {
  mutable time : float;
  mutable energy : float;
  mutable retired : float;
  mutable dead_time_big : float;     (* Transition penalties, seconds. *)
  mutable dead_time_little : float;
  (* Observation window accumulators. *)
  mutable win_start : float;
  mutable win_insts_big : float;
  mutable win_insts_little : float;
  mutable last_power_big : float;
  mutable last_power_little : float;
}

(* What one tick's helpers hand each other. Returned as tuples, or
   summed in float refs under a closure, these would allocate every
   tick; here each is a flat store. No field outlives its tick. *)
type scratch = {
  (* Thread-weighted character of the active phases. *)
  mutable weight : float;
  mutable mem : float;
  mutable ipc : float;
  mutable sync : float;
  (* Cluster retire rates after the barrier blend, GIPS. *)
  mutable gips_big : float;
  mutable gips_little : float;
  (* [retire]'s passes: Ginst left to hand out, and the current pass's
     batch and thread total. *)
  mutable remaining : float;
  mutable batch : float;
  mutable total_threads : float;
}

type t = {
  acc : accum;
  scratch : scratch;
  thermal : Thermal.t;
  sensors : Sensors.t;
  emergency : Emergency.t;
  mutable requested : config;
  mutable effective : config;
  (* The request and verdict [effective] was derived from: while both
     are the same values a clamped tick reuses it. *)
  mutable effective_request : config;
  mutable effective_action : Emergency.action;
  mutable placement : placement;
  jobs : job list;
  total_ginsts : float;
  mutable last_busy_big : int;
  mutable last_busy_little : int;
  mutable last_action : Emergency.action;
  mutable power_cap : float option;    (* External total-power cap, watts. *)
  injector : injector option;
}

let tick = 0.01

(* Lost compute per emergency trip (clamp transition, PLL relock,
   pipeline/cache disturbance). *)
let trip_dead_time_s = 0.25

let default_config =
  { big_cores = 2; little_cores = 2; freq_big = 1.0; freq_little = 0.8 }

let clamp_config c =
  {
    big_cores = Int.max 1 (Int.min Dvfs.core_count c.big_cores);
    little_cores = Int.max 1 (Int.min Dvfs.core_count c.little_cores);
    freq_big = Dvfs.quantize Dvfs.Big c.freq_big;
    freq_little = Dvfs.quantize Dvfs.Little c.freq_little;
  }

let clamp_placement p =
  {
    threads_big = Int.max 0 p.threads_big;
    tpc_big = Float.max 1.0 p.tpc_big;
    tpc_little = Float.max 1.0 p.tpc_little;
  }

let job_of_workload w =
  Workload.validate w;
  match w.Workload.phases with
  | [] -> assert false
  | first :: _ ->
    {
      workload = w;
      phases_left = w.Workload.phases;
      rem = { ginst = first.Workload.ginsts };
    }

let create ?(seed = 17) ?(sensor_period = Sensors.power_update_period)
    ?injector workloads =
  if workloads = [] then invalid_arg "Board.create: no workloads";
  let jobs = List.map job_of_workload workloads in
  {
    acc =
      {
        time = 0.0;
        energy = 0.0;
        retired = 0.0;
        dead_time_big = 0.0;
        dead_time_little = 0.0;
        win_start = 0.0;
        win_insts_big = 0.0;
        win_insts_little = 0.0;
        last_power_big = 0.0;
        last_power_little = 0.0;
      };
    scratch =
      {
        weight = 0.0;
        mem = 0.0;
        ipc = 0.0;
        sync = 0.0;
        gips_big = 0.0;
        gips_little = 0.0;
        remaining = 0.0;
        batch = 0.0;
        total_threads = 0.0;
      };
    thermal = Thermal.create ();
    sensors = Sensors.create ~seed ~period:sensor_period ();
    emergency = Emergency.create ();
    requested = default_config;
    effective = default_config;
    effective_request = default_config;
    effective_action = Emergency.no_caps;
    placement = { threads_big = 4; tpc_big = 1.0; tpc_little = 1.0 };
    jobs;
    total_ginsts =
      List.fold_left (fun acc w -> acc +. Workload.total_ginsts w) 0.0 workloads;
    last_busy_big = 0;
    last_busy_little = 0;
    power_cap = None;
    last_action = Emergency.no_caps;
    injector;
  }

(* The job-list walks below are plain recursive loops: a closure over
   float refs would heap-allocate the refs, and an option per active
   phase would allocate too, on every tick. *)

let rec all_finished = function
  | [] -> true
  | j :: rest -> j.phases_left = [] && all_finished rest

let finished t = all_finished t.jobs

let rec threads_of acc = function
  | [] -> acc
  | { phases_left = p :: _; _ } :: rest -> threads_of (acc + p.Workload.threads) rest
  | { phases_left = []; _ } :: rest -> threads_of acc rest

let active_threads t = threads_of 0 t.jobs

let rec add_character s = function
  | [] -> ()
  | { phases_left = p :: _; _ } :: rest ->
    let w = Float.of_int p.Workload.threads in
    s.weight <- s.weight +. w;
    s.mem <- s.mem +. (w *. p.Workload.mem_intensity);
    s.ipc <- s.ipc +. (w *. p.Workload.ipc_scale);
    s.sync <- s.sync +. (w *. p.Workload.sync_factor);
    add_character s rest
  | { phases_left = []; _ } :: rest -> add_character s rest

(* Thread-weighted blend of the active phases' characters, left in the
   scratch record's [mem], [ipc] and [sync]. *)
let workload_character t =
  let s = t.scratch in
  s.weight <- 0.0;
  s.mem <- 0.0;
  s.ipc <- 0.0;
  s.sync <- 0.0;
  add_character s t.jobs;
  if s.weight = 0.0 then begin
    s.mem <- 0.0;
    s.ipc <- 1.0;
    s.sync <- 0.0
  end
  else begin
    s.mem <- s.mem /. s.weight;
    s.ipc <- s.ipc /. s.weight;
    s.sync <- s.sync /. s.weight
  end

let dvfs_metric = Obs.Metrics.counter "board.dvfs_transitions"
let hotplug_metric = Obs.Metrics.counter "board.hotplug_changes"

let set_config t c =
  let c = clamp_config c in
  (* Actuator faults intercept the request before any accounting: dead
     time and Obs events reflect what the hardware actually applied. The
     hook only ever returns configurations that were themselves clamped
     (the current or an earlier request), so no re-clamp is needed. *)
  let c =
    match t.injector with
    | None -> c
    | Some inj -> inj.transform_config ~time:t.acc.time ~current:t.requested c
  in
  let old = t.requested in
  if c.freq_big <> old.freq_big then
    t.acc.dead_time_big <- t.acc.dead_time_big +. Dvfs.transition_cost_s;
  if c.freq_little <> old.freq_little then
    t.acc.dead_time_little <- t.acc.dead_time_little +. Dvfs.transition_cost_s;
  let plug_changes =
    abs (c.big_cores - old.big_cores) + abs (c.little_cores - old.little_cores)
  in
  if plug_changes > 0 then begin
    let cost = Float.of_int plug_changes *. Dvfs.hotplug_cost_s in
    t.acc.dead_time_big <- t.acc.dead_time_big +. cost;
    t.acc.dead_time_little <- t.acc.dead_time_little +. cost
  end;
  if Obs.Collector.observing () then begin
    let freq_changes =
      (if c.freq_big <> old.freq_big then 1 else 0)
      + if c.freq_little <> old.freq_little then 1 else 0
    in
    if freq_changes > 0 then begin
      Obs.Metrics.incr ~by:freq_changes dvfs_metric;
      Obs.Collector.event ~name:"board.dvfs" ~sim:t.acc.time (fun () ->
          [
            ("freq_big", Obs.Json.Float c.freq_big);
            ("freq_little", Obs.Json.Float c.freq_little);
          ])
    end;
    if plug_changes > 0 then begin
      Obs.Metrics.incr ~by:plug_changes hotplug_metric;
      Obs.Collector.event ~name:"board.hotplug" ~sim:t.acc.time (fun () ->
          [
            ("big_cores", Obs.Json.Int c.big_cores);
            ("little_cores", Obs.Json.Int c.little_cores);
            ("changed", Obs.Json.Int plug_changes);
          ])
    end
  end;
  t.requested <- c

(* Thread migration costs a few milliseconds of lost compute on both
   clusters per changed thread slot. *)
let migration_cost_s = 0.003

let set_placement t p =
  let p = clamp_placement p in
  let p =
    match t.injector with
    | None -> p
    | Some inj -> inj.transform_placement ~time:t.acc.time ~current:t.placement p
  in
  let old = t.placement in
  let moved = abs (p.threads_big - old.threads_big) in
  let repack =
    (if Float.abs (p.tpc_big -. old.tpc_big) > 1e-9 then 1 else 0)
    + if Float.abs (p.tpc_little -. old.tpc_little) > 1e-9 then 1 else 0
  in
  let cost = Float.of_int (moved + repack) *. migration_cost_s in
  t.acc.dead_time_big <- t.acc.dead_time_big +. cost;
  t.acc.dead_time_little <- t.acc.dead_time_little +. cost;
  t.placement <- p

let config t = t.requested

let effective_config t = t.effective

let placement t = t.placement

let spare_capacity ~cores_on ~busy ~threads =
  let idle_on = cores_on - busy in
  Float.of_int idle_on -. Float.of_int (threads - cores_on)

(* One retire pass: every active job takes its thread-weighted share of
   the pass's batch; a job that finishes its phase returns the leftover
   to [remaining] for the next pass (with carry into its next phase). *)
let rec retire_pass t = function
  | [] -> ()
  | j :: rest ->
    (match j.phases_left with
    | [] -> ()
    | p :: next ->
      let s = t.scratch in
      let share = s.batch *. Float.of_int p.Workload.threads /. s.total_threads in
      if share >= j.rem.ginst then begin
        let leftover = share -. j.rem.ginst in
        t.acc.retired <- t.acc.retired +. j.rem.ginst;
        j.phases_left <- next;
        (match next with
        | first :: _ -> j.rem.ginst <- first.Workload.ginsts
        | [] -> j.rem.ginst <- 0.0);
        s.remaining <- s.remaining +. leftover
      end
      else begin
        j.rem.ginst <- j.rem.ginst -. share;
        t.acc.retired <- t.acc.retired +. share
      end);
    retire_pass t rest

(* Retire [ginst] instructions, distributed across jobs proportionally to
   their active thread counts, advancing phases (with carry). *)
let[@inline] retire t ginst =
  let s = t.scratch in
  s.remaining <- ginst;
  let guard = ref 0 in
  while s.remaining > 1e-12 && (not (finished t)) && !guard < 100 do
    incr guard;
    let total_threads = Float.of_int (active_threads t) in
    if total_threads = 0.0 then s.remaining <- 0.0
    else begin
      s.batch <- s.remaining;
      s.total_threads <- total_threads;
      s.remaining <- 0.0;
      retire_pass t t.jobs
    end
  done

(* Barrier synchronization: the [sync] fraction of the work proceeds in
   lockstep, gated by the slowest thread (the straggler); the rest
   overlaps freely. The cluster retire rates, the blend of both regimes,
   land in [s.gips_big] and [s.gips_little]. *)
let[@inline] sync_blend s ~sync ~tb ~tl ~gips_big ~gips_little =
  if tb + tl = 0 then begin
    s.gips_big <- 0.0;
    s.gips_little <- 0.0
  end
  else begin
    let rate_big = if tb > 0 then gips_big /. Float.of_int tb else infinity in
    let rate_little =
      if tl > 0 then gips_little /. Float.of_int tl else infinity
    in
    let min_rate = Float.min rate_big rate_little in
    let min_rate = if Float.is_finite min_rate then min_rate else 0.0 in
    let sync_big = Float.of_int tb *. min_rate in
    let sync_little = Float.of_int tl *. min_rate in
    s.gips_big <- (sync *. sync_big) +. ((1.0 -. sync) *. gips_big);
    s.gips_little <- (sync *. sync_little) +. ((1.0 -. sync) *. gips_little)
  end

(* What the hardware runs: the request under the emergency verdict. *)
let apply_caps r (action : Emergency.action) =
  match action with
  | { cap_freq_big = None; cap_freq_little = None; cap_big_cores = None } -> r
  | _ ->
    {
      r with
      freq_big =
        (match action.cap_freq_big with
        | Some cap -> Float.min cap r.freq_big
        | None -> r.freq_big);
      freq_little =
        (match action.cap_freq_little with
        | Some cap -> Float.min cap r.freq_little
        | None -> r.freq_little);
      big_cores =
        (match action.cap_big_cores with
        | Some cap -> Int.min cap r.big_cores
        | None -> r.big_cores);
    }

let one_tick t =
  let acc = t.acc and s = t.scratch in
  (match t.injector with
  | None -> ()
  | Some inj -> inj.on_tick ~time:acc.time);
  let threads = active_threads t in
  workload_character t;
  (* Apply the emergency caps decided at the end of the previous tick to
     the requested configuration. Untripped — the common case — that is
     the request itself; a clamped tick derives a config once and reuses
     it while the request and the verdict stay the same. *)
  let r = t.requested and action = t.last_action in
  if not (r == t.effective_request && action == t.effective_action) then begin
    t.effective <- apply_caps r action;
    t.effective_request <- r;
    t.effective_action <- action
  end;
  let eff = t.effective in
  (* Throughput under the effective configuration. *)
  let p = t.placement in
  let tb = Int.min p.threads_big threads in
  let tl = threads - tb in
  let busy_big =
    Perf.cluster_busy ~cores_on:eff.big_cores ~threads:tb
      ~threads_per_core:p.tpc_big
  in
  let busy_little =
    Perf.cluster_busy ~cores_on:eff.little_cores ~threads:tl
      ~threads_per_core:p.tpc_little
  in
  sync_blend s ~sync:s.sync ~tb ~tl
    ~gips_big:
      (Perf.cluster_gips ~kind:Dvfs.Big ~freq:eff.freq_big ~busy:busy_big
         ~threads:tb ~mem_intensity:s.mem ~ipc_scale:s.ipc)
    ~gips_little:
      (Perf.cluster_gips ~kind:Dvfs.Little ~freq:eff.freq_little
         ~busy:busy_little ~threads:tl ~mem_intensity:s.mem ~ipc_scale:s.ipc);
  (* Workload phase-shift faults scale the retire rate (an IPC drop the
     identified model never saw). *)
  (match t.injector with
  | None -> ()
  | Some inj ->
    let g = inj.perf_gain ~time:acc.time in
    s.gips_big <- s.gips_big *. g;
    s.gips_little <- s.gips_little *. g);
  (* Transition/migration dead time eats into this tick's compute: each
     cluster pays what it owes, up to the whole tick, and computes for
     the rest. *)
  let paid_big = Float.min acc.dead_time_big tick in
  let paid_little = Float.min acc.dead_time_little tick in
  acc.dead_time_big <- acc.dead_time_big -. paid_big;
  acc.dead_time_little <- acc.dead_time_little -. paid_little;
  let insts_big = s.gips_big *. tick *. ((tick -. paid_big) /. tick) in
  let insts_little =
    s.gips_little *. tick *. ((tick -. paid_little) /. tick)
  in
  retire t (insts_big +. insts_little);
  acc.win_insts_big <- acc.win_insts_big +. insts_big;
  acc.win_insts_little <- acc.win_insts_little +. insts_little;
  t.last_busy_big <- busy_big;
  t.last_busy_little <- busy_little;
  (* Actual power drawn under the effective configuration. *)
  let temp = Thermal.temperature t.thermal in
  acc.last_power_big <-
    Power.cluster_power Dvfs.Big ~cores_on:eff.big_cores ~freq:eff.freq_big
      ~utilization:(Float.of_int busy_big /. Float.of_int eff.big_cores)
      ~temperature:temp;
  acc.last_power_little <-
    Power.cluster_power Dvfs.Little ~cores_on:eff.little_cores
      ~freq:eff.freq_little
      ~utilization:(Float.of_int busy_little /. Float.of_int eff.little_cores)
      ~temperature:temp;
  (* Power-model gain drift scales the actual draw (everything downstream
     — sensors, energy, thermal, protection — sees the drifted plant);
     thermal-resistance drift additionally scales only the heat path. *)
  let thermal_g =
    match t.injector with
    | None -> 1.0
    | Some inj ->
      let g = inj.power_gain ~time:acc.time in
      acc.last_power_big <- acc.last_power_big *. g;
      acc.last_power_little <- acc.last_power_little *. g;
      inj.thermal_gain ~time:acc.time
  in
  let p_big = acc.last_power_big and p_little = acc.last_power_little in
  Thermal.step t.thermal ~power_big:(p_big *. thermal_g)
    ~power_little:(p_little *. thermal_g) ~dt:tick;
  acc.energy <- acc.energy +. ((p_big +. p_little) *. tick);
  Sensors.refresh t.sensors ~time:acc.time ~power_big:p_big
    ~power_little:p_little;
  (* The protection machinery reacts to the actual power and temperature;
     its verdict applies from the next tick. A fresh trip costs dead time
     on both clusters (clamp transition, PLL relock, pipeline flush). *)
  let trips_before = Emergency.trip_count t.emergency in
  let act =
    Emergency.step t.emergency ?cap:t.power_cap ~dt:tick
      ~temperature:(Thermal.temperature t.thermal)
      ~power_big:p_big ~power_little:p_little ()
  in
  (* The verdicts are shared constants; storing the one already held
     would only pay the write barrier. *)
  if not (act == t.last_action) then t.last_action <- act;
  if Emergency.trip_count t.emergency > trips_before then begin
    acc.dead_time_big <- acc.dead_time_big +. trip_dead_time_s;
    acc.dead_time_little <- acc.dead_time_little +. trip_dead_time_s
  end;
  acc.time <- acc.time +. tick

let step t seconds =
  let ticks = Int.max 1 (int_of_float (Float.round (seconds /. tick))) in
  let i = ref 0 in
  while !i < ticks && not (finished t) do
    incr i;
    one_tick t
  done

let observe t =
  let window = Float.max tick (t.acc.time -. t.acc.win_start) in
  let bips_big = t.acc.win_insts_big /. window in
  let bips_little = t.acc.win_insts_little /. window in
  let threads = active_threads t in
  let tb = Int.min t.placement.threads_big threads in
  let tl = threads - tb in
  let power_big, power_little = Sensors.read t.sensors in
  let eff = t.effective in
  let out =
    {
      bips = bips_big +. bips_little;
      bips_big;
      bips_little;
      power_big;
      power_little;
      temperature = Thermal.temperature t.thermal;
      threads_active = threads;
      spare_big =
        spare_capacity ~cores_on:eff.big_cores ~busy:t.last_busy_big
          ~threads:tb;
      spare_little =
        spare_capacity ~cores_on:eff.little_cores ~busy:t.last_busy_little
          ~threads:tl;
    }
  in
  t.acc.win_start <- t.acc.time;
  t.acc.win_insts_big <- 0.0;
  t.acc.win_insts_little <- 0.0;
  (* Sensor faults corrupt only what the controllers observe; the board's
     internal protection machinery keeps seeing the true signals. *)
  match t.injector with
  | None -> out
  | Some inj -> inj.sense ~time:t.acc.time out

let step_hist = Obs.Metrics.histogram "board.step_s"

let run_epoch t epoch =
  if Obs.Collector.enabled () then begin
    let t0 = Obs.Collector.now () in
    step t epoch;
    Obs.Metrics.observe step_hist (Obs.Collector.now () -. t0);
    observe t
  end
  else begin
    step t epoch;
    observe t
  end

let set_power_cap t cap =
  if cap <> t.power_cap then begin
    t.power_cap <- cap;
    if Obs.Collector.observing () then
      Obs.Collector.event ~name:"board.cap" ~sim:t.acc.time (fun () ->
          [
            ( "cap_w",
              match cap with
              | None -> Obs.Json.Null
              | Some w -> Obs.Json.Float w );
          ])
  end

let time t = t.acc.time

let energy t = t.acc.energy

let trip_count t = Emergency.trip_count t.emergency

let progress t =
  if t.total_ginsts <= 0.0 then 1.0 else Float.min 1.0 (t.acc.retired /. t.total_ginsts)

type metrics = {
  execution_time : float;
  total_energy : float;
  energy_delay : float;
  trips : int;
}

let metrics t =
  {
    execution_time = t.acc.time;
    total_energy = t.acc.energy;
    energy_delay = t.acc.energy *. t.acc.time;
    trips = trip_count t;
  }

let true_power t = (t.acc.last_power_big, t.acc.last_power_little)

(* True die temperature: unlike [observe]'s outputs, never corrupted by
   an injector's sensor faults — health monitors read this. *)
let temperature t = Thermal.temperature t.thermal
