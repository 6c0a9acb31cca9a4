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

type t = {
  acc : accum;
  thermal : Thermal.t;
  sensors : Sensors.t;
  emergency : Emergency.t;
  mutable requested : config;
  mutable effective : config;
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
    big_cores = max 1 (min Dvfs.core_count c.big_cores);
    little_cores = max 1 (min Dvfs.core_count c.little_cores);
    freq_big = Dvfs.quantize Dvfs.Big c.freq_big;
    freq_little = Dvfs.quantize Dvfs.Little c.freq_little;
  }

let clamp_placement p =
  {
    threads_big = max 0 p.threads_big;
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
    thermal = Thermal.create ();
    sensors = Sensors.create ~seed ~period:sensor_period ();
    emergency = Emergency.create ();
    requested = default_config;
    effective = default_config;
    placement = { threads_big = 4; tpc_big = 1.0; tpc_little = 1.0 };
    jobs;
    total_ginsts =
      List.fold_left (fun acc w -> acc +. Workload.total_ginsts w) 0.0 workloads;
    last_busy_big = 0;
    last_busy_little = 0;
    power_cap = None;
    last_action =
      {
        Emergency.cap_freq_big = None;
        cap_freq_little = None;
        cap_big_cores = None;
      };
    injector;
  }

let job_finished j = j.phases_left = []

let job_active_phase j =
  match j.phases_left with [] -> None | p :: _ -> Some p

let finished t = List.for_all job_finished t.jobs

let active_threads t =
  List.fold_left
    (fun acc j ->
      match job_active_phase j with
      | Some p -> acc + p.Workload.threads
      | None -> acc)
    0 t.jobs

(* Thread-weighted blend of the active phases' characters. *)
let workload_character t =
  let threads = ref 0.0 and mem = ref 0.0 and ipc = ref 0.0 and sync = ref 0.0 in
  List.iter
    (fun j ->
      match job_active_phase j with
      | Some p ->
        let w = Float.of_int p.Workload.threads in
        threads := !threads +. w;
        mem := !mem +. (w *. p.Workload.mem_intensity);
        ipc := !ipc +. (w *. p.Workload.ipc_scale);
        sync := !sync +. (w *. p.Workload.sync_factor)
      | None -> ())
    t.jobs;
  if !threads = 0.0 then (0.0, 1.0, 0.0)
  else (!mem /. !threads, !ipc /. !threads, !sync /. !threads)

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

(* Retire [ginst] instructions, distributed across jobs proportionally to
   their active thread counts, advancing phases (with carry). *)
let retire t ginst =
  let remaining = ref ginst in
  let guard = ref 0 in
  while !remaining > 1e-12 && not (finished t) && !guard < 100 do
    incr guard;
    let total_threads = Float.of_int (active_threads t) in
    if total_threads = 0.0 then remaining := 0.0
    else begin
      let batch = !remaining in
      remaining := 0.0;
      List.iter
        (fun j ->
          match j.phases_left with
          | [] -> ()
          | p :: rest ->
            let share =
              batch *. Float.of_int p.Workload.threads /. total_threads
            in
            if share >= j.rem.ginst then begin
              let leftover = share -. j.rem.ginst in
              t.acc.retired <- t.acc.retired +. j.rem.ginst;
              j.phases_left <- rest;
              (match rest with
              | next :: _ -> j.rem.ginst <- next.Workload.ginsts
              | [] -> j.rem.ginst <- 0.0);
              (* Return the leftover to the pool for the next pass. *)
              remaining := !remaining +. leftover
            end
            else begin
              j.rem.ginst <- j.rem.ginst -. share;
              t.acc.retired <- t.acc.retired +. share
            end)
        t.jobs
    end
  done

(* Barrier synchronization: the [sync] fraction of the work proceeds in
   lockstep, gated by the slowest thread (the straggler); the rest
   overlaps freely. Cluster retire rates are the blend of both regimes. *)
let sync_blend ~sync ~tb ~tl ~gips_big ~gips_little =
  if tb + tl = 0 then (0.0, 0.0)
  else begin
    let rate_big =
      if tb > 0 then gips_big /. Float.of_int tb else infinity
    in
    let rate_little =
      if tl > 0 then gips_little /. Float.of_int tl else infinity
    in
    let min_rate = Float.min rate_big rate_little in
    let min_rate = if Float.is_finite min_rate then min_rate else 0.0 in
    let sync_big = Float.of_int tb *. min_rate in
    let sync_little = Float.of_int tl *. min_rate in
    ( (sync *. sync_big) +. ((1.0 -. sync) *. gips_big),
      (sync *. sync_little) +. ((1.0 -. sync) *. gips_little) )
  end

let one_tick t =
  (match t.injector with
  | None -> ()
  | Some inj -> inj.on_tick ~time:t.acc.time);
  let threads = active_threads t in
  let mem, ipc, sync = workload_character t in
  (* Apply the emergency caps decided at the end of the previous tick to
     the requested configuration: this is what the hardware actually
     runs. *)
  let r = t.requested in
  let action = t.last_action in
  let eff =
    match action with
    (* Untripped — the common case — runs the request as-is, with no
       fresh config record. *)
    | { Emergency.cap_freq_big = None; cap_freq_little = None;
        cap_big_cores = None } ->
      r
    | _ ->
      {
        r with
        freq_big =
          (match action.Emergency.cap_freq_big with
          | Some cap -> Float.min cap r.freq_big
          | None -> r.freq_big);
        freq_little =
          (match action.Emergency.cap_freq_little with
          | Some cap -> Float.min cap r.freq_little
          | None -> r.freq_little);
        big_cores =
          (match action.Emergency.cap_big_cores with
          | Some cap -> min cap r.big_cores
          | None -> r.big_cores);
      }
  in
  (* In steady state [eff] is the very record already stored (the
     untripped arm returns [t.requested] unchanged); skipping the
     redundant store skips its write barrier. *)
  if not (eff == t.effective) then t.effective <- eff;
  (* Throughput under the effective configuration. *)
  let tb = min t.placement.threads_big threads in
  let tl = threads - tb in
  let gips_big, busy_big =
    Perf.cluster_throughput ~kind:Dvfs.Big ~freq:eff.freq_big
      ~cores_on:eff.big_cores ~threads:tb ~threads_per_core:t.placement.tpc_big
      ~mem_intensity:mem ~ipc_scale:ipc
  in
  let gips_little, busy_little =
    Perf.cluster_throughput ~kind:Dvfs.Little ~freq:eff.freq_little
      ~cores_on:eff.little_cores ~threads:tl
      ~threads_per_core:t.placement.tpc_little ~mem_intensity:mem
      ~ipc_scale:ipc
  in
  let gips_big, gips_little =
    sync_blend ~sync ~tb ~tl ~gips_big ~gips_little
  in
  (* Workload phase-shift faults scale the retire rate (an IPC drop the
     identified model never saw). *)
  let gips_big, gips_little =
    match t.injector with
    | None -> (gips_big, gips_little)
    | Some inj ->
      let g = inj.perf_gain ~time:t.acc.time in
      (gips_big *. g, gips_little *. g)
  in
  (* Transition/migration dead time eats into this tick's compute. *)
  let eat_dead current available =
    let used = Float.min current available in
    (current -. used, (available -. used) /. available)
  in
  let dead_big, duty_big = eat_dead t.acc.dead_time_big tick in
  let dead_little, duty_little = eat_dead t.acc.dead_time_little tick in
  t.acc.dead_time_big <- dead_big;
  t.acc.dead_time_little <- dead_little;
  let insts_big = gips_big *. tick *. duty_big in
  let insts_little = gips_little *. tick *. duty_little in
  retire t (insts_big +. insts_little);
  t.acc.win_insts_big <- t.acc.win_insts_big +. insts_big;
  t.acc.win_insts_little <- t.acc.win_insts_little +. insts_little;
  t.last_busy_big <- busy_big;
  t.last_busy_little <- busy_little;
  (* Actual power drawn under the effective configuration. *)
  let temp = Thermal.temperature t.thermal in
  let p_big =
    Power.cluster_power_on Dvfs.Big ~cores_on:eff.big_cores
      ~freq:eff.freq_big
      ~utilization:(Float.of_int busy_big /. Float.of_int eff.big_cores)
      ~temperature:temp
  in
  let p_little =
    Power.cluster_power_on Dvfs.Little ~cores_on:eff.little_cores
      ~freq:eff.freq_little
      ~utilization:(Float.of_int busy_little /. Float.of_int eff.little_cores)
      ~temperature:temp
  in
  (* Power-model gain drift scales the actual draw (everything downstream
     — sensors, energy, thermal, protection — sees the drifted plant);
     thermal-resistance drift additionally scales only the heat path. *)
  let p_big, p_little, thermal_g =
    match t.injector with
    | None -> (p_big, p_little, 1.0)
    | Some inj ->
      let g = inj.power_gain ~time:t.acc.time in
      (p_big *. g, p_little *. g, inj.thermal_gain ~time:t.acc.time)
  in
  t.acc.last_power_big <- p_big;
  t.acc.last_power_little <- p_little;
  Thermal.step t.thermal ~power_big:(p_big *. thermal_g)
    ~power_little:(p_little *. thermal_g) ~dt:tick;
  t.acc.energy <- t.acc.energy +. ((p_big +. p_little) *. tick);
  Sensors.refresh t.sensors ~time:t.acc.time ~power_big:p_big
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
  (* Untripped, [step] returns the shared [no_caps] constant every tick;
     storing it again would only pay the write barrier. *)
  if not (act == t.last_action) then t.last_action <- act;
  if Emergency.trip_count t.emergency > trips_before then begin
    t.acc.dead_time_big <- t.acc.dead_time_big +. trip_dead_time_s;
    t.acc.dead_time_little <- t.acc.dead_time_little +. trip_dead_time_s
  end;
  t.acc.time <- t.acc.time +. tick

let step t seconds =
  let ticks = max 1 (int_of_float (Float.round (seconds /. tick))) in
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
  let tb = min t.placement.threads_big threads in
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
