(* Tests for the board simulator: DVFS tables, power/thermal models, the
   performance model, workloads, sensors, emergency heuristics, and the
   integrated board dynamics. *)

open Board

let check_float = Alcotest.(check (float 1e-9))
let check_float_loose = Alcotest.(check (float 1e-4))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Dvfs                                                                *)
(* ------------------------------------------------------------------ *)

(* The distinct frequencies [Dvfs.quantize] lands on from requests
   0-3 GHz in 0.1 GHz steps, ascending: the cluster's DVFS table. *)
let levels kind =
  List.init 31 (fun i -> Dvfs.quantize kind (0.1 *. Float.of_int i))
  |> List.sort_uniq compare |> Array.of_list

let test_dvfs_tables () =
  check_int "big levels" 19 (Array.length (levels Dvfs.Big));
  check_int "little levels" 13 (Array.length (levels Dvfs.Little));
  check_float "big max" 2.0 (Dvfs.f_max Dvfs.Big);
  check_float "little max" 1.4 (Dvfs.f_max Dvfs.Little);
  check_float "min" 0.2 (Dvfs.f_min Dvfs.Big)

let test_dvfs_quantize () =
  check_float "snap" 1.3 (Dvfs.quantize Dvfs.Big 1.34);
  check_float "clamp high" 1.4 (Dvfs.quantize Dvfs.Little 1.9);
  check_float "clamp low" 0.2 (Dvfs.quantize Dvfs.Big 0.0)

let test_dvfs_voltage_monotone () =
  let increasing kind =
    let l = levels kind in
    let ok = ref true in
    for i = 1 to Array.length l - 1 do
      if Dvfs.voltage kind l.(i) <= Dvfs.voltage kind l.(i - 1) then ok := false
    done;
    !ok
  in
  check_bool "big monotone" true (increasing Dvfs.Big);
  check_bool "little monotone" true (increasing Dvfs.Little);
  check_bool "plausible range" true
    (Dvfs.voltage Dvfs.Big 2.0 < 1.3 && Dvfs.voltage Dvfs.Big 0.2 > 0.8)

(* ------------------------------------------------------------------ *)
(* Power                                                               *)
(* ------------------------------------------------------------------ *)

(* Every core of the cluster busy at its top frequency. *)
let full_load ~temperature kind =
  Power.cluster_power kind ~cores_on:4 ~freq:(Dvfs.f_max kind)
    ~utilization:1.0 ~temperature

let test_power_calibration () =
  (* Full big cluster must exceed the paper's 3.3 W limit; full little the
     0.33 W limit — otherwise the power caps would never bind. *)
  check_bool "big exceeds limit" true
    (full_load ~temperature:70.0 Dvfs.Big > 3.3);
  check_bool "little exceeds limit" true
    (full_load ~temperature:70.0 Dvfs.Little > 0.33);
  check_bool "big below 8W" true (full_load ~temperature:85.0 Dvfs.Big < 8.0)

let test_power_monotone_freq () =
  let p f =
    Power.cluster_power Dvfs.Big ~cores_on:4 ~freq:f ~utilization:1.0
      ~temperature:60.0
  in
  check_bool "increasing in f" true (p 1.0 < p 1.5 && p 1.5 < p 2.0)

let test_power_monotone_cores () =
  let p n =
    Power.cluster_power Dvfs.Big ~cores_on:n ~freq:1.5 ~utilization:1.0
      ~temperature:60.0
  in
  check_bool "increasing in cores" true (p 1 < p 2 && p 3 < p 4)

let test_power_zero_cores () =
  check_float "gated cluster draws nothing" 0.0
    (Power.cluster_power Dvfs.Little ~cores_on:0 ~freq:1.0 ~utilization:0.5
       ~temperature:60.0)

let test_power_leakage_grows_with_temp () =
  let p temp =
    Power.cluster_power Dvfs.Big ~cores_on:4 ~freq:1.0 ~utilization:0.0
      ~temperature:temp
  in
  check_bool "hotter leaks more" true (p 80.0 > p 40.0)

let test_power_idle_below_busy () =
  let busy =
    Power.cluster_power Dvfs.Big ~cores_on:4 ~freq:1.0 ~utilization:1.0
      ~temperature:60.0
  in
  let idle =
    Power.cluster_power Dvfs.Big ~cores_on:4 ~freq:1.0 ~utilization:0.0
      ~temperature:60.0
  in
  check_bool "idle cheaper" true (idle < busy);
  check_bool "idle not free" true (idle > 0.0)

(* ------------------------------------------------------------------ *)
(* Thermal                                                             *)
(* ------------------------------------------------------------------ *)

let test_thermal_starts_ambient () =
  let th = Thermal.create () in
  check_float "ambient" Thermal.ambient (Thermal.temperature th)

(* The temperature the given powers settle at if held forever. One step
   long enough that both nodes' decay factors [exp (-dt/tau)] underflow
   to 0 (dt >= 1.4e4 s for the 18 s package node) lands exactly on the
   RC network's targets. *)
let steady_state ~power_big ~power_little =
  let th = Thermal.create () in
  Thermal.step th ~power_big ~power_little ~dt:1e5;
  Thermal.temperature th

let test_thermal_steady_state_at_limits () =
  (* Running exactly at the paper's limits must settle just below 79 C. *)
  let s = steady_state ~power_big:3.3 ~power_little:0.33 in
  check_bool "below 79" true (s < 79.0);
  check_bool "above 74" true (s > 74.0)

let test_thermal_overshoot_at_full_power () =
  let s =
    steady_state
      ~power_big:(full_load ~temperature:85.0 Dvfs.Big)
      ~power_little:(full_load ~temperature:85.0 Dvfs.Little)
  in
  check_bool "full power overheats" true (s > Emergency.thermal_trip)

let test_thermal_convergence () =
  let th = Thermal.create () in
  for _ = 1 to 100_000 do
    Thermal.step th ~power_big:2.0 ~power_little:0.2 ~dt:0.01
  done;
  check_float_loose "converges to steady state"
    (steady_state ~power_big:2.0 ~power_little:0.2)
    (Thermal.temperature th)

let test_thermal_monotone_step () =
  let th = Thermal.create () in
  Thermal.step th ~power_big:3.0 ~power_little:0.3 ~dt:1.0;
  let t1 = Thermal.temperature th in
  Thermal.step th ~power_big:3.0 ~power_little:0.3 ~dt:1.0;
  let t2 = Thermal.temperature th in
  check_bool "heating" true (t2 > t1 && t1 > Thermal.ambient)

(* ------------------------------------------------------------------ *)
(* Perf                                                                *)
(* ------------------------------------------------------------------ *)

let test_perf_zero_threads () =
  check_float "no threads no work" 0.0
    (Perf.core_throughput ~kind:Dvfs.Big ~freq:2.0 ~mem_intensity:0.2
       ~ipc_scale:1.0 ~threads_on_core:0.0)

let test_perf_big_faster () =
  let big =
    Perf.core_throughput ~kind:Dvfs.Big ~freq:2.0 ~mem_intensity:0.1
      ~ipc_scale:1.0 ~threads_on_core:1.0
  in
  let little =
    Perf.core_throughput ~kind:Dvfs.Little ~freq:1.4 ~mem_intensity:0.1
      ~ipc_scale:1.0 ~threads_on_core:1.0
  in
  check_bool "big wins on compute" true (big > 2.0 *. little)

let test_perf_memory_flattens_scaling () =
  (* For memory-bound work doubling frequency must gain much less than 2x. *)
  let gain mem =
    let t1 =
      Perf.core_throughput ~kind:Dvfs.Big ~freq:1.0 ~mem_intensity:mem
        ~ipc_scale:1.0 ~threads_on_core:1.0
    in
    let t2 =
      Perf.core_throughput ~kind:Dvfs.Big ~freq:2.0 ~mem_intensity:mem
        ~ipc_scale:1.0 ~threads_on_core:1.0
    in
    t2 /. t1
  in
  check_bool "compute-bound scales" true (gain 0.0 > 1.95);
  check_bool "memory-bound saturates" true (gain 0.9 < 1.75)

let test_perf_multiplexing_penalty () =
  let one =
    Perf.core_throughput ~kind:Dvfs.Big ~freq:1.5 ~mem_intensity:0.2
      ~ipc_scale:1.0 ~threads_on_core:1.0
  in
  let two =
    Perf.core_throughput ~kind:Dvfs.Big ~freq:1.5 ~mem_intensity:0.2
      ~ipc_scale:1.0 ~threads_on_core:2.0
  in
  check_bool "sharing costs a little" true (two < one && two > 0.75 *. one)

let cluster_gips busy =
  Perf.cluster_gips ~kind:Dvfs.Big ~freq:1.5 ~busy ~threads:4
    ~mem_intensity:0.2 ~ipc_scale:1.0

let test_perf_cluster_spreading () =
  (* 4 threads at 1 thread/core on 4 cores: 4 busy cores. *)
  let busy4 = Perf.cluster_busy ~cores_on:4 ~threads:4 ~threads_per_core:1.0 in
  let gips4 = cluster_gips busy4 in
  check_int "all busy" 4 busy4;
  (* Packed 2-per-core: only 2 busy cores, lower aggregate. *)
  let busy2 = Perf.cluster_busy ~cores_on:4 ~threads:4 ~threads_per_core:2.0 in
  let gips2 = cluster_gips busy2 in
  check_int "packed" 2 busy2;
  check_bool "packing costs throughput" true (gips2 < gips4);
  (* But packing cannot be worse than half. *)
  check_bool "bounded loss" true (gips2 > 0.4 *. gips4)

let test_perf_cluster_clamps () =
  check_int "cannot exceed cores_on" 2
    (Perf.cluster_busy ~cores_on:2 ~threads:8 ~threads_per_core:1.0);
  check_int "no threads, no busy core" 0
    (Perf.cluster_busy ~cores_on:4 ~threads:0 ~threads_per_core:1.0);
  check_float "no busy core, no throughput" 0.0 (cluster_gips 0)

let test_perf_speedup_ratio () =
  (* Throughput of one big core over one little core, each at its top
     frequency. *)
  let speedup ~mem_intensity =
    let at kind =
      Perf.core_throughput ~kind ~freq:(Dvfs.f_max kind) ~mem_intensity
        ~ipc_scale:1.0 ~threads_on_core:1.0
    in
    at Dvfs.Big /. at Dvfs.Little
  in
  let compute = speedup ~mem_intensity:0.0 in
  let memory = speedup ~mem_intensity:0.9 in
  check_bool "big advantage shrinks when memory-bound" true (memory < compute);
  check_bool "big always at least as fast" true (memory > 1.0)

(* ------------------------------------------------------------------ *)
(* Workload                                                            *)
(* ------------------------------------------------------------------ *)

let test_workload_suite_composition () =
  check_int "parsec count" 8 (List.length Workload.parsec);
  check_int "spec count" 6 (List.length Workload.spec);
  check_int "suite" 14 (List.length Workload.evaluation_suite);
  check_int "training" 6 (List.length Workload.training);
  check_int "mixes" 4 (List.length Workload.mixes)

let test_workload_by_name () =
  let bl = Workload.by_name "blackscholes" in
  check_int "serial then parallel" 2 (List.length bl.Workload.phases);
  check_int "max threads" 8 (Workload.max_threads bl);
  check_bool "not found" true
    (match Workload.by_name "quake3" with
    | exception Not_found -> true
    | _ -> false)

let test_workload_training_disjoint () =
  let eval_names =
    List.map (fun w -> w.Workload.name) Workload.evaluation_suite
  in
  check_bool "training disjoint from evaluation" true
    (List.for_all
       (fun w -> not (List.mem w.Workload.name eval_names))
       Workload.training)

let test_workload_scale () =
  let bl = Workload.by_name "blackscholes" in
  let h = Workload.scale ~threads:4 ~ginsts:100.0 bl in
  check_int "threads capped" 4 (Workload.max_threads h);
  check_float_loose "budget scaled" 100.0 (Workload.total_ginsts h)

let test_workload_memory_spread () =
  (* The suite must span compute-bound and memory-bound extremes. *)
  let mem w =
    List.fold_left
      (fun acc p -> Float.max acc p.Workload.mem_intensity)
      0.0 w.Workload.phases
  in
  let suite = Workload.evaluation_suite in
  check_bool "has compute-bound" true (List.exists (fun w -> mem w < 0.15) suite);
  check_bool "has memory-bound" true (List.exists (fun w -> mem w > 0.7) suite)

(* ------------------------------------------------------------------ *)
(* Sensors                                                             *)
(* ------------------------------------------------------------------ *)

(* Feed the sensor one sample and return its held big reading. *)
let sample_big s ~time ~power_big ~power_little =
  Sensors.refresh s ~time ~power_big ~power_little;
  fst (Sensors.read s)

let test_sensor_holds_between_updates () =
  let s = Sensors.create () in
  let b0 = sample_big s ~time:0.0 ~power_big:2.0 ~power_little:0.2 in
  check_float "initial sample" 2.0 b0;
  (* 0.1 s later the sensor has not refreshed: still holds 2.0. *)
  let b1 = sample_big s ~time:0.1 ~power_big:5.0 ~power_little:0.5 in
  check_float "held" 2.0 b1;
  (* After the 260 ms period it picks up the new value. *)
  let b2 = sample_big s ~time:0.3 ~power_big:5.0 ~power_little:0.5 in
  check_float "refreshed" 5.0 b2

let test_sensor_read_is_pure () =
  let s = Sensors.create () in
  Sensors.refresh s ~time:0.0 ~power_big:1.0 ~power_little:0.1;
  let b, l = Sensors.read s in
  check_float "read big" 1.0 b;
  check_float "read little" 0.1 l;
  let b', _ = Sensors.read s in
  check_float "still held" 1.0 b'

let test_sensor_noise_bounded () =
  let s = Sensors.create ~noise:0.05 ~seed:3 () in
  (* Samples 1 s apart: each is due a refresh and draws fresh noise. *)
  let samples =
    List.init 100 (fun i ->
        sample_big s ~time:(Float.of_int i) ~power_big:3.0 ~power_little:0.3)
  in
  let worst =
    List.fold_left
      (fun w b -> Float.max w (Float.abs (b -. 3.0) /. 3.0))
      0.0 samples
  in
  check_bool "noise around 5 percent" true (worst < 0.35 && worst > 0.001);
  check_int "every sample draws its own noise" 100
    (List.length (List.sort_uniq compare samples))

(* ------------------------------------------------------------------ *)
(* Emergency                                                           *)
(* ------------------------------------------------------------------ *)

let test_emergency_quiet_below_limits () =
  let e = Emergency.create () in
  let a =
    Emergency.step e ~dt:1.0 ~temperature:70.0 ~power_big:3.0 ~power_little:0.3 ()
  in
  check_bool "no caps" true
    (a.Emergency.cap_freq_big = None && a.Emergency.cap_freq_little = None);
  check_int "no trip" 0 (Emergency.trip_count e)

let test_emergency_thermal_trip () =
  let e = Emergency.create () in
  let a =
    Emergency.step e ~dt:0.01 ~temperature:86.0 ~power_big:2.0 ~power_little:0.2 ()
  in
  check_bool "freq clamped" true (a.Emergency.cap_freq_big = Some 0.5);
  check_bool "cores clamped" true (a.Emergency.cap_big_cores = Some 2);
  check_int "counted" 1 (Emergency.trip_count e)

let test_emergency_power_needs_sustained_overage () =
  let e = Emergency.create () in
  (* A short spike does not trip. *)
  let a =
    Emergency.step e ~dt:0.3 ~temperature:70.0 ~power_big:5.0 ~power_little:0.2 ()
  in
  check_bool "spike tolerated" true (a.Emergency.cap_freq_big = None);
  (* Sustained overage does. *)
  let a2 =
    Emergency.step e ~dt:0.5 ~temperature:70.0 ~power_big:5.0 ~power_little:0.2 ()
  in
  check_bool "sustained trips" true (a2.Emergency.cap_freq_big <> None)

let test_emergency_recovers () =
  let e = Emergency.create () in
  ignore
    (Emergency.step e ~dt:0.01 ~temperature:86.0 ~power_big:2.0
       ~power_little:0.2 ());
  (* After the cooldown elapses with a cool chip, caps lift. *)
  let a =
    Emergency.step e ~dt:5.0 ~temperature:70.0 ~power_big:2.0 ~power_little:0.2 ()
  in
  check_bool "caps lifted" true
    (a.Emergency.cap_freq_big = None
    && a.Emergency.cap_freq_little = None
    && a.Emergency.cap_big_cores = None)

let test_emergency_trip_dumps_recorder () =
  (* A trip with the flight recorder armed snapshots the event window
     that led up to it — including the trip event itself, last. *)
  Obs.Collector.disable ();
  Obs.Recorder.clear ();
  Obs.Recorder.enable ~capacity:8 ();
  (* Pre-trip context lands in the ring even though tracing is off. *)
  Obs.Collector.event ~name:"pre.context" ~sim:0.0 (fun () ->
      [ ("k", Obs.Json.Int 1) ]);
  let e = Emergency.create () in
  ignore
    (Emergency.step e ~dt:0.01 ~temperature:86.0 ~power_big:2.0
       ~power_little:0.2 ());
  check_int "one dump per trip" 1 (Obs.Recorder.dump_count ());
  (match Obs.Recorder.dumps () with
  | [ d ] ->
    let fields = Obs.Json.member "fields" d in
    Alcotest.(check (option string)) "dump reason"
      (Some "emergency.trip:thermal")
      (Option.bind (Option.bind fields (Obs.Json.member "reason"))
         Obs.Json.to_string_opt);
    let names =
      Option.bind (Option.bind fields (Obs.Json.member "window"))
        Obs.Json.to_list_opt
      |> Option.value ~default:[]
      |> List.filter_map (fun j ->
             Option.bind (Obs.Json.member "name" j) Obs.Json.to_string_opt)
    in
    check_bool "window holds the preceding context" true
      (names = [ "pre.context"; "emergency.trip" ])
  | ds -> Alcotest.failf "expected 1 dump, got %d" (List.length ds));
  Obs.Recorder.disable ();
  Obs.Recorder.clear ()

(* ------------------------------------------------------------------ *)
(* Board integration                                                   *)
(* ------------------------------------------------------------------ *)

let fresh_board () = Xu3.create [ Workload.by_name "blackscholes" ]

let test_board_config_quantized () =
  let b = fresh_board () in
  Xu3.set_config b
    { big_cores = 9; little_cores = 0; freq_big = 1.77; freq_little = 3.0 };
  let c = Xu3.config b in
  check_int "cores clamped" 4 c.big_cores;
  check_int "at least one little" 1 c.little_cores;
  check_float "freq snapped" 1.8 c.freq_big;
  check_float "freq clamped" 1.4 c.freq_little

let test_board_runs_to_completion () =
  let b = Xu3.create [ Workload.by_name "mcf" ] in
  Xu3.set_config b
    { big_cores = 4; little_cores = 4; freq_big = 1.4; freq_little = 1.0 };
  Xu3.set_placement b { threads_big = 8; tpc_big = 2.0; tpc_little = 1.0 };
  let guard = ref 0 in
  while (not (Xu3.finished b)) && !guard < 10_000 do
    incr guard;
    Xu3.step b 0.5
  done;
  check_bool "finished" true (Xu3.finished b);
  let m = Xu3.metrics b in
  check_bool "nonzero time" true (m.execution_time > 1.0);
  check_bool "nonzero energy" true (m.total_energy > 1.0);
  check_float_loose "exd consistent"
    (m.execution_time *. m.total_energy)
    m.energy_delay;
  check_float_loose "progress complete" 1.0 (Xu3.progress b)

let test_board_higher_freq_is_faster () =
  let run freq =
    let b = Xu3.create [ Workload.by_name "gamess" ] in
    Xu3.set_config b
      { big_cores = 4; little_cores = 1; freq_big = freq; freq_little = 0.2 };
    Xu3.set_placement b { threads_big = 8; tpc_big = 2.0; tpc_little = 1.0 };
    let guard = ref 0 in
    while (not (Xu3.finished b)) && !guard < 20_000 do
      incr guard;
      Xu3.step b 0.5
    done;
    (Xu3.metrics b).execution_time
  in
  (* Compare two settings that both stay below the emergency thresholds. *)
  check_bool "1.3 GHz beats 0.9 GHz" true (run 1.3 < run 0.9)

let test_board_decoupled_trips_emergency () =
  (* Max everything: power exceeds the trip level, the board fights back. *)
  let b = Xu3.create [ Workload.by_name "gamess" ] in
  Xu3.set_config b
    { big_cores = 4; little_cores = 4; freq_big = 2.0; freq_little = 1.4 };
  Xu3.set_placement b { threads_big = 8; tpc_big = 2.0; tpc_little = 1.0 };
  Xu3.step b 30.0;
  check_bool "emergency fired" true (Xu3.trip_count b > 0);
  let eff = Xu3.effective_config b in
  check_bool "sane effective freq" true (eff.freq_big <= 2.0)

let test_board_epoch_outputs () =
  let b = fresh_board () in
  Xu3.set_config b
    { big_cores = 2; little_cores = 2; freq_big = 1.0; freq_little = 0.8 };
  Xu3.set_placement b { threads_big = 1; tpc_big = 1.0; tpc_little = 1.0 };
  let o = Xu3.run_epoch b 0.5 in
  check_bool "bips positive" true (o.bips > 0.0);
  check_bool "power plausible" true (o.power_big > 0.0 && o.power_big < 8.0);
  check_bool "temp above ambient" true (o.temperature > Thermal.ambient);
  (* blackscholes starts single-threaded. *)
  check_int "one thread" 1 o.threads_active

let test_board_thread_count_changes () =
  let b = fresh_board () in
  Xu3.set_config b
    { big_cores = 4; little_cores = 4; freq_big = 1.6; freq_little = 1.0 };
  Xu3.set_placement b { threads_big = 8; tpc_big = 1.0; tpc_little = 1.0 };
  (* Run until the serial phase (18 Ginst) completes; threads become 8. *)
  let seen_8 = ref false in
  for _ = 1 to 400 do
    let o = Xu3.run_epoch b 0.5 in
    if o.threads_active = 8 then seen_8 := true
  done;
  check_bool "parallel phase reached" true !seen_8

let test_board_packing_powers_off_cores () =
  (* With 8 threads packed 2-per-core, spare capacity formula says the
     cluster could idle cores: SC = idle_on - (threads - cores_on). *)
  check_float "sc packed" (-2.0)
    (Xu3.spare_capacity ~cores_on:2 ~busy:2 ~threads:4);
  check_float "sc spread" 0.0
    (Xu3.spare_capacity ~cores_on:4 ~busy:4 ~threads:4);
  check_float "sc idle" 6.0
    (Xu3.spare_capacity ~cores_on:4 ~busy:1 ~threads:1)

let test_board_mix_jobs_both_finish () =
  let b = Xu3.create (List.assoc "blmc" Workload.mixes) in
  Xu3.set_config b
    { big_cores = 4; little_cores = 4; freq_big = 1.4; freq_little = 1.0 };
  Xu3.set_placement b { threads_big = 4; tpc_big = 1.0; tpc_little = 1.0 };
  let guard = ref 0 in
  while (not (Xu3.finished b)) && !guard < 20_000 do
    incr guard;
    Xu3.step b 0.5
  done;
  check_bool "mix finished" true (Xu3.finished b)

let test_board_energy_accumulates () =
  let b = fresh_board () in
  Xu3.step b 1.0;
  let e1 = Xu3.energy b in
  Xu3.step b 1.0;
  check_bool "monotone" true (Xu3.energy b > e1 && e1 > 0.0)

(* ------------------------------------------------------------------ *)
(* Allocation budget                                                   *)
(* ------------------------------------------------------------------ *)

(* Work that outlasts every measurement window below. *)
let endless name = Workload.scale ~ginsts:1e5 (Workload.by_name name)

(* Minor words per 10 ms tick of [Xu3.step] over 1,000 epochs of 0.5 s,
   after 100 warm-up epochs, with the trip count before and after. *)
let words_per_tick ?cap jobs =
  let b = Xu3.create jobs in
  Xu3.set_power_cap b cap;
  for _ = 1 to 100 do
    Xu3.step b 0.5
  done;
  let t0 = Xu3.time b and trips0 = Xu3.trip_count b in
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    Xu3.step b 0.5
  done;
  let w1 = Gc.minor_words () in
  let ticks = Float.round ((Xu3.time b -. t0) /. 0.01) in
  check_float "ticks stepped" 50_000.0 ticks;
  ((w1 -. w0) /. ticks, trips0, Xu3.trip_count b)

let test_board_untripped_tick_allocates_nothing () =
  let check label ?cap jobs =
    let words, trips0, trips1 = words_per_tick ?cap jobs in
    check_int (label ^ ": no trip") trips0 trips1;
    check_float (label ^ ": minor words per tick") 0.0 words
  in
  check "blackscholes" [ endless "blackscholes" ];
  check "three-job mix"
    (List.map
       (fun name -> Workload.scale ~threads:3 (endless name))
       [ "blackscholes"; "mcf"; "gamess" ]);
  check "capped, untripped" ~cap:5.0 [ endless "blackscholes" ]

(* Flat out on both clusters, the power limiters trip and clamp. Once
   the clamp's first tick has derived the clamped configuration, the
   ticks it holds for reuse that configuration and the verdict. *)
let test_board_clamped_tick_allocates_nothing () =
  let b = Xu3.create [ endless "gamess" ] in
  Xu3.set_config b
    { big_cores = 4; little_cores = 4; freq_big = 2.0; freq_little = 1.4 };
  Xu3.set_placement b { threads_big = 8; tpc_big = 2.0; tpc_little = 1.0 };
  let guard = ref 0 in
  while Xu3.trip_count b = 0 && !guard < 10_000 do
    incr guard;
    Xu3.step b 0.01
  done;
  check_bool "tripped" true (Xu3.trip_count b > 0);
  Xu3.step b 0.01;
  let trips = Xu3.trip_count b and eff = Xu3.effective_config b in
  let w0 = Gc.minor_words () in
  for _ = 1 to 100 do
    Xu3.step b 0.01
  done;
  let w1 = Gc.minor_words () in
  check_int "no further trip" trips (Xu3.trip_count b);
  check_bool "clamped" true (eff.freq_big < (Xu3.config b).freq_big);
  check_bool "one derived config" true (Xu3.effective_config b == eff);
  check_float "minor words per clamped tick" 0.0 ((w1 -. w0) /. 100.0)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_power_bounded =
  QCheck.Test.make ~name:"power within physical bounds" ~count:200
    QCheck.(
      quad (int_range 0 4) (float_range 0.2 2.0) (float_range 0.0 1.0)
        (float_range 30.0 95.0))
    (fun (cores, f, util, temp) ->
      let p =
        Power.cluster_power Dvfs.Big ~cores_on:cores ~freq:f ~utilization:util
          ~temperature:temp
      in
      p >= 0.0 && p <= 8.0)

let prop_thermal_bounded_by_steady_state =
  QCheck.Test.make ~name:"thermal never exceeds steady state" ~count:50
    QCheck.(pair (float_range 0.0 6.0) (float_range 0.0 0.6))
    (fun (pb, pl) ->
      let th = Thermal.create () in
      let ok = ref true in
      let ss = steady_state ~power_big:pb ~power_little:pl in
      for _ = 1 to 1000 do
        Thermal.step th ~power_big:pb ~power_little:pl ~dt:0.1;
        if Thermal.temperature th > ss +. 1e-6 then ok := false
      done;
      !ok)

let prop_perf_monotone_in_freq =
  QCheck.Test.make ~name:"throughput monotone in frequency" ~count:100
    QCheck.(pair (float_range 0.0 1.0) (float_range 0.2 1.9))
    (fun (mem, f) ->
      let t1 =
        Perf.core_throughput ~kind:Dvfs.Big ~freq:f ~mem_intensity:mem
          ~ipc_scale:1.0 ~threads_on_core:1.0
      in
      let t2 =
        Perf.core_throughput ~kind:Dvfs.Big ~freq:(f +. 0.1) ~mem_intensity:mem
          ~ipc_scale:1.0 ~threads_on_core:1.0
      in
      t2 > t1)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_power_bounded;
      prop_thermal_bounded_by_steady_state;
      prop_perf_monotone_in_freq;
    ]


(* ------------------------------------------------------------------ *)
(* Round 2: edge cases                                                 *)
(* ------------------------------------------------------------------ *)

let test_emergency_escalation () =
  let e = Emergency.create () in
  (* First trip: clamp lasts the base duration. *)
  ignore
    (Emergency.step e ~dt:0.01 ~temperature:86.0 ~power_big:2.0
       ~power_little:0.2 ());
  (* Cool down fully, then trip again quickly: the clamp escalates, so
     after the base duration it is still active. *)
  ignore
    (Emergency.step e ~dt:3.1 ~temperature:70.0 ~power_big:2.0
       ~power_little:0.2 ());
  ignore
    (Emergency.step e ~dt:0.01 ~temperature:86.0 ~power_big:2.0
       ~power_little:0.2 ());
  let a =
    Emergency.step e ~dt:3.5 ~temperature:70.0 ~power_big:2.0
      ~power_little:0.2 ()
  in
  check_bool "escalated clamp outlasts base duration" true
    (a.Emergency.cap_freq_big <> None);
  check_int "two trips" 2 (Emergency.trip_count e)

let test_board_placement_clamped () =
  let b = Xu3.create [ Workload.by_name "gamess" ] in
  Xu3.set_placement b { Xu3.threads_big = -3; tpc_big = 0.2; tpc_little = 0.0 };
  let p = Xu3.placement b in
  check_int "threads non-negative" 0 p.Xu3.threads_big;
  check_bool "tpc at least 1" true (p.Xu3.tpc_big >= 1.0 && p.Xu3.tpc_little >= 1.0)

let test_board_observe_resets_window () =
  let b = Xu3.create [ Workload.by_name "gamess" ] in
  Xu3.set_placement b { Xu3.threads_big = 8; tpc_big = 2.0; tpc_little = 1.0 };
  Xu3.step b 1.0;
  let o1 = Xu3.observe b in
  (* Without advancing time, the window is empty: near-zero BIPS. *)
  let o2 = Xu3.observe b in
  check_bool "first window has work" true (o1.Xu3.bips > 0.0);
  check_bool "second window empty" true (o2.Xu3.bips <= o1.Xu3.bips)

let test_board_step_after_finish_is_noop () =
  let tiny = Workload.scale ~ginsts:5.0 (Workload.by_name "gamess") in
  let b = Xu3.create [ tiny ] in
  Xu3.set_config b
    { Xu3.big_cores = 4; little_cores = 4; freq_big = 1.4; freq_little = 1.0 };
  Xu3.set_placement b { Xu3.threads_big = 8; tpc_big = 2.0; tpc_little = 1.0 };
  let guard = ref 0 in
  while (not (Xu3.finished b)) && !guard < 10000 do
    incr guard;
    Xu3.step b 0.5
  done;
  let t1 = Xu3.time b in
  Xu3.step b 5.0;
  check_float "time frozen after completion" t1 (Xu3.time b)

let test_board_true_power_vs_sensor () =
  let b = Xu3.create [ Workload.by_name "gamess" ] in
  Xu3.step b 2.0;
  let pb, pl = Xu3.true_power b in
  check_bool "true power positive" true (pb > 0.0 && pl > 0.0);
  check_bool "plausible" true (pb < 8.0 && pl < 1.0)

let test_workload_mix_thread_count () =
  List.iter
    (fun (name, jobs) ->
      let total =
        List.fold_left (fun acc w -> acc + Workload.max_threads w) 0 jobs
      in
      check_int (name ^ " is 4+4") 8 total)
    Workload.mixes

let test_dvfs_transition_costs_positive () =
  check_bool "dvfs cost" true (Dvfs.transition_cost_s > 0.0);
  check_bool "hotplug cost" true (Dvfs.hotplug_cost_s > Dvfs.transition_cost_s)


let test_synthetic_workload_valid () =
  for seed = 1 to 10 do
    let w = Workload.synthetic ~seed () in
    Workload.validate w;
    check_bool "threads bounded" true (Workload.max_threads w <= 8);
    check_bool "budget positive" true (Workload.total_ginsts w > 0.0)
  done;
  (* Deterministic for a seed. *)
  let a = Workload.synthetic ~seed:3 () and b = Workload.synthetic ~seed:3 () in
  check_bool "deterministic" true (a = b)

let round2_cases =
  [
    Alcotest.test_case "emergency escalation" `Quick test_emergency_escalation;
    Alcotest.test_case "placement clamped" `Quick test_board_placement_clamped;
    Alcotest.test_case "observe window reset" `Quick
      test_board_observe_resets_window;
    Alcotest.test_case "step after finish" `Quick
      test_board_step_after_finish_is_noop;
    Alcotest.test_case "true power" `Quick test_board_true_power_vs_sensor;
    Alcotest.test_case "mix thread counts" `Quick test_workload_mix_thread_count;
    Alcotest.test_case "transition costs" `Quick
      test_dvfs_transition_costs_positive;
    Alcotest.test_case "synthetic workloads" `Quick
      test_synthetic_workload_valid;
  ]

let () =
  Alcotest.run "board"
    [
      ( "dvfs",
        [
          Alcotest.test_case "tables" `Quick test_dvfs_tables;
          Alcotest.test_case "quantize" `Quick test_dvfs_quantize;
          Alcotest.test_case "voltage" `Quick test_dvfs_voltage_monotone;
        ] );
      ( "power",
        [
          Alcotest.test_case "calibration" `Quick test_power_calibration;
          Alcotest.test_case "monotone freq" `Quick test_power_monotone_freq;
          Alcotest.test_case "monotone cores" `Quick test_power_monotone_cores;
          Alcotest.test_case "zero cores" `Quick test_power_zero_cores;
          Alcotest.test_case "leakage vs temp" `Quick
            test_power_leakage_grows_with_temp;
          Alcotest.test_case "idle below busy" `Quick test_power_idle_below_busy;
        ] );
      ( "thermal",
        [
          Alcotest.test_case "ambient" `Quick test_thermal_starts_ambient;
          Alcotest.test_case "steady at limits" `Quick
            test_thermal_steady_state_at_limits;
          Alcotest.test_case "overshoot" `Quick
            test_thermal_overshoot_at_full_power;
          Alcotest.test_case "convergence" `Quick test_thermal_convergence;
          Alcotest.test_case "monotone heating" `Quick
            test_thermal_monotone_step;
        ] );
      ( "perf",
        [
          Alcotest.test_case "zero threads" `Quick test_perf_zero_threads;
          Alcotest.test_case "big faster" `Quick test_perf_big_faster;
          Alcotest.test_case "memory saturation" `Quick
            test_perf_memory_flattens_scaling;
          Alcotest.test_case "multiplexing" `Quick
            test_perf_multiplexing_penalty;
          Alcotest.test_case "cluster spreading" `Quick
            test_perf_cluster_spreading;
          Alcotest.test_case "cluster clamps" `Quick test_perf_cluster_clamps;
          Alcotest.test_case "speedup ratio" `Quick test_perf_speedup_ratio;
        ] );
      ( "workload",
        [
          Alcotest.test_case "suite composition" `Quick
            test_workload_suite_composition;
          Alcotest.test_case "by name" `Quick test_workload_by_name;
          Alcotest.test_case "training disjoint" `Quick
            test_workload_training_disjoint;
          Alcotest.test_case "scale" `Quick test_workload_scale;
          Alcotest.test_case "memory spread" `Quick test_workload_memory_spread;
        ] );
      ( "sensors",
        [
          Alcotest.test_case "hold" `Quick test_sensor_holds_between_updates;
          Alcotest.test_case "pure read" `Quick test_sensor_read_is_pure;
          Alcotest.test_case "noise" `Quick test_sensor_noise_bounded;
        ] );
      ( "emergency",
        [
          Alcotest.test_case "quiet" `Quick test_emergency_quiet_below_limits;
          Alcotest.test_case "thermal trip" `Quick test_emergency_thermal_trip;
          Alcotest.test_case "sustained power" `Quick
            test_emergency_power_needs_sustained_overage;
          Alcotest.test_case "recovers" `Quick test_emergency_recovers;
          Alcotest.test_case "trip dumps the flight recorder" `Quick
            test_emergency_trip_dumps_recorder;
        ] );
      ( "board",
        [
          Alcotest.test_case "config quantized" `Quick
            test_board_config_quantized;
          Alcotest.test_case "runs to completion" `Quick
            test_board_runs_to_completion;
          Alcotest.test_case "faster at higher freq" `Quick
            test_board_higher_freq_is_faster;
          Alcotest.test_case "decoupled trips" `Quick
            test_board_decoupled_trips_emergency;
          Alcotest.test_case "epoch outputs" `Quick test_board_epoch_outputs;
          Alcotest.test_case "thread changes" `Quick
            test_board_thread_count_changes;
          Alcotest.test_case "spare capacity" `Quick
            test_board_packing_powers_off_cores;
          Alcotest.test_case "mix finishes" `Quick
            test_board_mix_jobs_both_finish;
          Alcotest.test_case "energy accumulates" `Quick
            test_board_energy_accumulates;
          Alcotest.test_case "untripped tick allocates nothing" `Quick
            test_board_untripped_tick_allocates_nothing;
          Alcotest.test_case "clamped tick allocates nothing" `Quick
            test_board_clamped_tick_allocates_nothing;
        ] );
      ("edge cases", round2_cases);
      ("properties", qcheck_cases);
    ]
