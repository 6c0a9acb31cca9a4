(* The evaluation harness: regenerates every table and figure of the
   paper's evaluation (Section VI) on the simulated board.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- --fig9 --fig10 ...   -- selected pieces
     dune exec bench/main.exe -- -j 4 ...             -- domain-parallel grids
     dune exec bench/main.exe -- fleet ...            -- rack-level fleet runs

   Flags (--help lists them), the --json document schema, and the
   parallelism/cache rules are documented in BENCHMARKS.md.

   Absolute numbers differ from the paper (the substrate is a simulator,
   not the authors' ODROID XU3); the reproduction targets are the shapes:
   which scheme wins, rough factors, where sensitivities bend. See
   EXPERIMENTS.md for the side-by-side reading. *)

open Yukta

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* Machine-readable results, accumulated by each figure when [--json OUT]
   is given and written as one JSON document at exit (the BENCH_*.json
   trajectory seed). *)
let json_out : (string * Obs.Json.t) list ref = ref []

let json_record key v = json_out := (key, v) :: !json_out

(* [-j N]: every figure's runs fan out to a pool of N domains, created
   once the flags are parsed (a one-job pool, inline, by default); every
   figure's output is byte-identical at any job count. *)
let pool = ref (Parallel.Pool.create ~jobs:1)

(* Wall time per generated figure, keyed like the JSON document, in run
   order. These (and the job count) land in the document's "bench"
   block — the only fields expected to differ between [-j 1] and [-j N]
   runs. *)
let started_at = Obs.Collector.now ()

let walls : (string * float) list ref = ref []

let timed key f =
  let t0 = Obs.Collector.now () in
  let v = f () in
  walls := (key, Obs.Collector.now () -. t0) :: !walls;
  v

let bench_json () =
  Obs.Json.Obj
    [
      ("jobs", Obs.Json.Int !Cli.jobs);
      ( "wall_s",
        Obs.Json.Obj
          (List.rev_map (fun (k, s) -> (k, Obs.Json.Float s)) !walls) );
      ("total_wall_s", Obs.Json.Float (Obs.Collector.now () -. started_at));
    ]

let document () =
  Obs.Json.Obj
    (("schema", Obs.Json.String "yukta.bench/v1")
    :: ("bench", bench_json ())
    :: List.rev !json_out)

(* All naming comes from the scheme registry; the harness keeps no
   tables of its own. *)
let scheme_abbrev (s : Schemes.info) = s.Schemes.abbrev

let scheme key = Schemes.find_exn key

(* [--smoke]: a CI-sized run — two suite entries, capped simulated time.
   Shapes are meaningless at this size; the point is exercising every
   code path and the JSON schema. *)
let run_max_time () = if !Cli.smoke then Some 120.0 else None

let suite_entries () =
  let entries = Experiment.suite_entries () in
  if !Cli.smoke then
    match entries with a :: b :: _ -> [ a; b ] | short -> short
  else entries

let mix_entries () =
  let entries = Experiment.mix_entries () in
  if !Cli.smoke then
    match entries with a :: _ -> [ a ] | [] -> []
  else entries

(* ------------------------------------------------------------------ *)
(* Tables II-IV: the controller specifications                         *)
(* ------------------------------------------------------------------ *)

let print_signal_table (spec : Design.spec) =
  Printf.printf "inputs (signal, range, step, weight):\n";
  Array.iter
    (fun (i : Signal.input) ->
      Printf.printf "  %-14s [%.1f, %.1f] step %.1f  weight %.0f\n"
        i.Signal.name i.Signal.channel.Control.Quantize.minimum
        i.Signal.channel.Control.Quantize.maximum
        i.Signal.channel.Control.Quantize.step i.Signal.weight)
    spec.Design.inputs;
  Printf.printf "outputs (signal, range, bound):\n";
  Array.iter
    (fun (o : Signal.output) ->
      Printf.printf "  %-18s [%.2f, %.2f]  +-%.0f%%%s\n" o.Signal.name
        o.Signal.lo o.Signal.hi
        (100.0 *. o.Signal.bound_fraction)
        (if o.Signal.critical then "  (critical)" else ""))
    spec.Design.outputs;
  Printf.printf "external signals: %s\n"
    (String.concat ", "
       (Array.to_list
          (Array.map (fun e -> e.Signal.name) spec.Design.externals)));
  Printf.printf "uncertainty guardband: +-%.0f%%\n"
    (100.0 *. spec.Design.uncertainty)

let table2 () =
  section "Table II: hardware controller parameters";
  Printf.printf
    "goal: minimize ExD subject to Pbig < %.2f W, Plittle < %.2f W, T < %.0f C\n"
    Hw_layer.power_limit_big Hw_layer.power_limit_little Hw_layer.temp_limit;
  print_signal_table (Hw_layer.spec ())

let table3 () =
  section "Table III: software controller parameters";
  Printf.printf "goal: minimize ExD (caps delegated to the hardware layer)\n";
  print_signal_table (Sw_layer.spec ())

let table4 () =
  section "Table IV: the registered schemes";
  List.iter
    (fun (s : Schemes.info) ->
      Printf.printf "  %-12s %-26s %d layers  [%s]\n" s.Schemes.abbrev
        s.Schemes.name
        (List.length s.Schemes.layers)
        s.Schemes.citation)
    Schemes.all

(* ------------------------------------------------------------------ *)
(* Figure 9: ExD and execution time, 4 schemes x full suite            *)
(* ------------------------------------------------------------------ *)

let fig9_schemes =
  [ scheme "coord"; scheme "decoupled"; scheme "hw-ssv"; scheme "yukta" ]

let suite_rows schemes =
  Experiment.run_suite ?max_time:(run_max_time ()) ~pool:!pool ~schemes
    (suite_entries ())

let print_rows title rows schemes value =
  section title;
  Printf.printf "%-14s" "app";
  List.iter (fun s -> Printf.printf " %12s" (scheme_abbrev s)) schemes;
  Printf.printf "\n";
  List.iter
    (fun (r : Experiment.normalized_row) ->
      Printf.printf "%-14s" r.Experiment.name;
      List.iter
        (fun s -> Printf.printf " %12.3f" (List.assoc s (value r)))
        schemes;
      Printf.printf "\n")
    rows;
  let spec_names = List.map (fun w -> w.Board.Workload.name) Board.Workload.spec in
  let parsec_names =
    List.map (fun w -> w.Board.Workload.name) Board.Workload.parsec
  in
  let avg = Experiment.averages rows ~spec_names ~parsec_names ~value in
  let has_spec = List.exists (fun r -> List.mem r.Experiment.name spec_names) rows in
  let has_parsec =
    List.exists (fun r -> List.mem r.Experiment.name parsec_names) rows
  in
  let labels =
    (if has_spec then [ ("SAv", fun (x, _, _) -> x) ] else [])
    @ (if has_parsec then [ ("PAv", fun (_, x, _) -> x) ] else [])
    @ [ ("Avg", fun (_, _, x) -> x) ]
  in
  List.iter
    (fun label_pick ->
      let label, pick = label_pick in
      Printf.printf "%-14s" label;
      List.iter
        (fun s ->
          let sav, pav, a = avg s in
          Printf.printf " %12.3f" (pick (sav, pav, a)))
        schemes;
      Printf.printf "\n")
    labels

let fig9 () =
  let rows = suite_rows fig9_schemes in
  print_rows "Figure 9(a): ExD normalized to Coordinated heuristic" rows
    fig9_schemes (fun r -> r.Experiment.exd);
  print_rows "Figure 9(b): execution time normalized to Coordinated heuristic"
    rows fig9_schemes (fun r -> r.Experiment.time);
  json_record "fig9" (Experiment.suite_json rows);
  (* Fleet health over the same grid: per-scheme merged Obs.Health
     aggregates — byte-identical at any -j by construction. *)
  json_record "health" (Experiment.suite_health_json rows)

(* ------------------------------------------------------------------ *)
(* Figures 10 and 11: blackscholes traces                              *)
(* ------------------------------------------------------------------ *)

(* The time label of a row is the simulated timestamp recorded in the
   trace itself (taken from the longest trace available at that index),
   not [index * epoch]: trace points are sampled at the *end* of each
   epoch, so the first point sits at 0.5 s, not 0.0 s. *)
let row_time traces i =
  List.find_map
    (fun t -> if i < Array.length t then Some t.(i).Stack.time else None)
    traces

(* A trace table: a time column, then one [width]-wide column per
   labelled trace holding [pick] of every [len / rows]-th epoch, or a
   dash once that trace has ended. [note] trails the header. *)
let print_trace_table ~note ~width ~rows pick traces =
  Printf.printf "%-8s" "time(s)";
  List.iter (fun (l, _) -> Printf.printf " %*s" width l) traces;
  Printf.printf "%s\n" note;
  let len =
    List.fold_left (fun acc (_, t) -> max acc (Array.length t)) 0 traces
  in
  let stride = max 1 (len / rows) in
  let i = ref 0 in
  while !i < len do
    let t =
      match row_time (List.map snd traces) !i with
      | Some t -> t
      | None -> Float.of_int (!i + 1) *. 0.5
    in
    Printf.printf "%-8.1f" t;
    List.iter
      (fun (_, t) ->
        if !i < Array.length t then Printf.printf " %*.2f" width (pick t.(!i))
        else Printf.printf " %*s" width "-")
      traces;
    Printf.printf "\n";
    i := !i + stride
  done

let print_trace key title pick schemes =
  section title;
  (* Single-force before fan-out: building each stack warms its designs. *)
  List.iter (fun s -> ignore (Schemes.stack s)) schemes;
  let traces =
    Parallel.Pool.map !pool
      (fun s ->
        let r =
          Schemes.run ?max_time:(run_max_time ()) ~collect_trace:true s
            [ Board.Workload.by_name "blackscholes" ]
        in
        (s, r))
      schemes
  in
  print_trace_table ~note:"" ~width:12 ~rows:40 pick
    (List.map (fun (s, r) -> (scheme_abbrev s, r.Stack.trace)) traces);
  List.iter
    (fun (s, r) ->
      let m = r.Stack.metrics in
      Printf.printf "# %-14s completes at %.0f s (energy %.0f J, %d trips)\n"
        (scheme_abbrev s) m.Board.Xu3.execution_time m.Board.Xu3.total_energy
        m.Board.Xu3.trips)
    traces;
  json_record key
    (Obs.Json.Obj
       (List.map
          (fun (s, r) ->
            let m = r.Stack.metrics in
            ( scheme_abbrev s,
              Obs.Json.Obj
                [
                  ("execution_time_s", Obs.Json.Float m.Board.Xu3.execution_time);
                  ("energy_j", Obs.Json.Float m.Board.Xu3.total_energy);
                  ("exd_js", Obs.Json.Float m.Board.Xu3.energy_delay);
                  ("trips", Obs.Json.Int m.Board.Xu3.trips);
                ] ))
          traces))

let fig10 () =
  print_trace "fig10"
    "Figure 10: big-cluster power (W) vs time, blackscholes (limit 3.3 W)"
    (fun p -> p.Stack.power_big)
    fig9_schemes

let fig11 () =
  print_trace "fig11" "Figure 11: performance (BIPS) vs time, blackscholes"
    (fun p -> p.Stack.bips)
    fig9_schemes

(* ------------------------------------------------------------------ *)
(* Figures 12-13: LQG comparison                                       *)
(* ------------------------------------------------------------------ *)

let lqg_schemes =
  [ scheme "coord"; scheme "lqg-dec"; scheme "lqg-mono"; scheme "yukta" ]

let fig12_13 () =
  let rows = suite_rows lqg_schemes in
  print_rows "Figure 12: ExD, LQG-based designs vs Yukta" rows lqg_schemes
    (fun r -> r.Experiment.exd);
  print_rows "Figure 13: execution time, LQG-based designs vs Yukta" rows
    lqg_schemes (fun r -> r.Experiment.time);
  json_record "fig12_13" (Experiment.suite_json rows)

(* ------------------------------------------------------------------ *)
(* Figure 14: heterogeneous workloads                                  *)
(* ------------------------------------------------------------------ *)

let fig14 () =
  let schemes = fig9_schemes @ [ scheme "lqg-dec"; scheme "lqg-mono" ] in
  let rows =
    Experiment.run_suite ?max_time:(run_max_time ()) ~pool:!pool ~schemes
      (mix_entries ())
  in
  print_rows "Figure 14: ExD on heterogeneous mixes" rows schemes (fun r ->
      r.Experiment.exd);
  json_record "fig14" (Experiment.suite_json rows)

(* Wall-clock cost of forcing the two controller designs (cache load or
   full identify+synthesize, whichever the cache state implies), plus the
   certified mu/gamma of the result — the "synthesis timings" block of
   the --json document. *)
let synthesis_json () =
  let timed layer force =
    let t0 = Obs.Collector.now () in
    let d = force () in
    let dt = Obs.Collector.now () -. t0 in
    ( layer,
      Obs.Json.Obj
        [
          ("wall_s", Obs.Json.Float dt);
          ("mu_peak", Obs.Json.Float d.Design.mu_peak);
          ("gamma", Obs.Json.Float d.Design.gamma);
          ("controller_order", Obs.Json.Int (Controller.order d.Design.controller));
        ] )
  in
  json_record "synthesis"
    (Obs.Json.Obj [ timed "hw" Designs.hw; timed "sw" Designs.sw ])

(* ------------------------------------------------------------------ *)
(* Section VI-D: controller implementation cost                        *)
(* ------------------------------------------------------------------ *)

let cost () =
  section "Section VI-D: hardware controller implementation cost";
  let hw = Designs.hw () in
  let c = Controller.cost hw.Design.controller in
  Printf.printf
    "state dimension N = %d, inputs I = %d, outputs+externals O+E = %d\n"
    c.Controller.states c.Controller.inputs c.Controller.outputs_and_externals;
  Printf.printf "multiply-accumulates per invocation: %d (~%d operations)\n"
    c.Controller.multiply_accumulates
    (2 * c.Controller.multiply_accumulates);
  Printf.printf "coefficient + state storage: %d bytes (~%.1f KB)\n"
    c.Controller.storage_bytes
    (Float.of_int c.Controller.storage_bytes /. 1024.0);
  (* Wall-clock cost of one invocation: the median over the micro
     harness's timed repetitions. *)
  let ctrl = hw.Design.controller in
  let measurements = [| 5.0; 2.5; 0.25; 65.0 |] in
  let targets = [| 6.0; 3.0; 0.3; 77.0 |] in
  let externals = [| 6.0; 1.5; 1.0 |] in
  let step =
    {
      Micro.kernel = "controller step";
      size = "hardware layer";
      batch = 20000;
      reps = 30;
      smoke_reps = 15;
      prepare =
        (fun () () ->
          ignore (Controller.step ctrl ~measurements ~targets ~externals));
    }
  in
  List.iter
    (fun spec ->
      let m = Micro.run_spec ~smoke:!Cli.smoke spec in
      Printf.printf "  %-24s %10.2f ns/invocation (median)\n" m.Micro.m_kernel
        (m.Micro.m_median_s *. 1e9))
    [ step; Micro.mu_upper7 ]

(* ------------------------------------------------------------------ *)
(* Figure 15: sensitivity to output deviation bounds                   *)
(* ------------------------------------------------------------------ *)

let bound_variants = [ (0.20, "+-20% (+-1 BIPS)"); (0.30, "+-30% (+-1.5 BIPS)"); (0.50, "+-50% (+-2.5 BIPS)") ]

let variant_designs perf_bound =
  let hw = Designs.design_hw_with (Hw_layer.spec ~perf_bound ()) in
  (* The OS controller bounds scale proportionally (Section VI-E1). *)
  let sw = Designs.design_sw_with (Sw_layer.spec ~bound:perf_bound ()) in
  (hw, sw)

(* Suite-average ExD of each variant, normalized app by app to the
   coordinated heuristic: coord runs once per app and the apps fan out
   to the pool. A variant runs one app's workloads on a fresh stack;
   the designs it closes over must already be forced. *)
let avg_exd_vs_coord variants =
  let exd (r : Stack.result) = r.Stack.metrics.Board.Xu3.energy_delay in
  let ratios =
    Parallel.Pool.map !pool
      (fun (_, workloads) ->
        let base =
          exd
            (Schemes.run ?max_time:(run_max_time ()) (scheme "coord")
               workloads)
        in
        List.map (fun run -> exd (run workloads) /. base) variants)
      (suite_entries ())
  in
  List.mapi
    (fun i _ -> Experiment.average (List.map (fun r -> List.nth r i) ratios))
    variants

(* One app on a fresh [build ()] stack, at the bench horizon. *)
let stack_run ?sensor_period build workloads =
  Stack.run ?max_time:(run_max_time ()) ?sensor_period (build ()) workloads

let fig15 () =
  section "Figure 15(a): performance under fixed targets, varying bounds";
  (* Fixed, mutually consistent targets (the performance this board
     delivers at 2.5 W): perf 8 BIPS, Pbig 2.5 W, Plittle 0.2 W, T 70 C;
     OS: perf_little 1.5, perf_big 6.5, dSC 1. *)
  let hw_targets = [| 8.0; 2.5; 0.2; 70.0 |] in
  let sw_targets = [| 1.5; 6.5; 1.0 |] in
  let designs =
    List.map (fun (b, label) -> (label, variant_designs b)) bound_variants
  in
  let traces =
    Parallel.Pool.map !pool
      (fun (label, (hw, sw)) ->
        let tr =
          (Stack.run ~max_time:100.0 ~collect_trace:true
             (Schemes.fixed_targets_stack ~hw_design:hw ~sw_design:sw
                ~hw_targets ~sw_targets)
             [ Board.Workload.by_name "blackscholes" ])
            .Stack.trace
        in
        (label, tr))
      designs
  in
  print_trace_table ~note:"   (target 8.0 BIPS)" ~width:20 ~rows:25
    (fun p -> p.Stack.bips) traces;
  (* Tracking-quality summary: rms deviation from the target in steady
     state (after 25 s). *)
  List.iter
    (fun (l, t) ->
      let sum = ref 0.0 and n = ref 0 in
      Array.iteri
        (fun i p ->
          if i > 50 then begin
            let d = p.Stack.bips -. 8.0 in
            sum := !sum +. (d *. d);
            incr n
          end)
        t;
      if !n > 0 then
        Printf.printf "# %-22s rms deviation %.3f BIPS\n" l
          (Float.sqrt (!sum /. Float.of_int !n)))
    traces;
  section "Figure 15(b): ExD vs bounds (suite average, normalized)";
  (* Yukta-full with the variant designs against the baseline. *)
  List.iter2
    (fun (label, _) r ->
      Printf.printf "  bounds %-22s normalized ExD = %.3f\n" label r)
    designs
    (avg_exd_vs_coord
       (List.map
          (fun (_, (hw, sw)) ->
            stack_run (fun () -> Schemes.yukta_full_stack hw sw))
          designs))

(* ------------------------------------------------------------------ *)
(* Figure 16: sensitivity to the uncertainty guardband                 *)
(* ------------------------------------------------------------------ *)

let guardbands = [ 0.40; 1.0; 2.5; 5.0 ]

let fig16 () =
  section "Figure 16(a): guaranteed deviation bounds vs guardband";
  Printf.printf
    "%-12s %10s %10s  (bounds normalized to the +-40%% design)\n"
    "guardband" "mu peak" "bound xN";
  let designs =
    List.map
      (fun g -> (g, Designs.design_hw_with (Hw_layer.spec ~uncertainty:g ())))
      guardbands
  in
  let scale (_, hw) = Float.max 1.0 hw.Design.mu_peak in
  let ref_scale = scale (List.hd designs) in
  List.iter
    (fun ((g, hw) as d) ->
      Printf.printf "+-%-10.0f%% %10.3f %10.3f\n" (100.0 *. g)
        hw.Design.mu_peak (scale d /. ref_scale))
    designs;
  section "Figure 16(b): ExD vs guardband (suite average, normalized)";
  let sw = Designs.sw () in
  List.iter2
    (fun (g, _) r ->
      Printf.printf "  guardband +-%-6.0f%% normalized ExD = %.3f\n"
        (100.0 *. g) r)
    designs
    (avg_exd_vs_coord
       (List.map
          (fun (_, hw) -> stack_run (fun () -> Schemes.yukta_full_stack hw sw))
          designs))

(* ------------------------------------------------------------------ *)
(* Figure 17: sensitivity to input weights                             *)
(* ------------------------------------------------------------------ *)

let fig17 () =
  section "Figure 17: big-cluster power vs time for input weights (target 2.5 W)";
  let weights = [ 0.5; 1.0; 2.0 ] in
  let hw_targets = [| 5.5; 2.5; 0.2; 70.0 |] in
  let sw_targets = [| 1.0; 4.5; 1.0 |] in
  let sw = Designs.sw () in
  let designs =
    List.map
      (fun w -> (w, Designs.design_hw_with (Hw_layer.spec ~input_weight:w ())))
      weights
  in
  let traces =
    Parallel.Pool.map !pool
      (fun (w, hw) ->
        let tr =
          (Stack.run ~max_time:100.0 ~collect_trace:true
             (Schemes.fixed_targets_stack ~hw_design:hw ~sw_design:sw
                ~hw_targets ~sw_targets)
             [ Board.Workload.by_name "blackscholes" ])
            .Stack.trace
        in
        (w, tr))
      designs
  in
  print_trace_table ~note:"   (target 2.5 W)" ~width:12 ~rows:30
    (fun p -> p.Stack.power_big)
    (List.map (fun (w, t) -> (Printf.sprintf "weight %.1f" w, t)) traces);
  List.iter
    (fun (w, t) ->
      (* Oscillation measure: mean absolute epoch-to-epoch power change in
         steady state. *)
      let acc = ref 0.0 and n = ref 0 in
      Array.iteri
        (fun i p ->
          if i > 40 && i < Array.length t then begin
            acc := !acc +. Float.abs (p.Stack.power_big -. t.(i - 1).Stack.power_big);
            incr n
          end)
        t;
      if !n > 0 then
        Printf.printf "# weight %.1f: mean |dP| per epoch = %.3f W\n" w
          (!acc /. Float.of_int !n))
    traces

(* ------------------------------------------------------------------ *)
(* Robustness: fault campaigns (DESIGN.md section 8)                   *)
(* ------------------------------------------------------------------ *)

(* The regenerable form of the paper's robustness claim (Section V):
   replay one seeded fault schedule against every scheme, in-guardband
   (plant drifts inside the synthesis' uncertainty ball) and
   out-of-guardband. Everything here runs on simulated time only, so
   the JSON block is byte-for-byte reproducible across runs. *)

let robustness_seed = 42

let robustness_schemes () =
  if !Cli.smoke then
    [ scheme "coord"; scheme "decoupled"; scheme "lqg-dec"; scheme "yukta" ]
  else
    [
      scheme "coord";
      scheme "decoupled";
      scheme "hw-ssv";
      scheme "lqg-dec";
      scheme "lqg-mono";
      scheme "yukta";
    ]

(* The campaign horizon is matched to the slowest scheme's clean
   makespan: every scheme's whole execution is exposed to the fault
   window, so exposure does not depend on how fast a scheme finishes.
   An over-long workload would concentrate faults in the early phase
   and weight the verdict by scheme speed rather than robustness. *)
let robustness_workloads () =
  [ Board.Workload.scale ~ginsts:400.0 (Board.Workload.by_name "blackscholes") ]

let print_campaign title (outcomes : Fault.Campaign.outcome list) =
  Printf.printf "\n%s\n" title;
  Printf.printf "%-14s %12s %12s %10s %7s %11s %9s\n" "scheme" "clean ExD"
    "faulted ExD" "inflation" "+trips" "recover(s)" "survived";
  List.iter
    (fun (o : Fault.Campaign.outcome) ->
      Printf.printf "%-14s %12.1f %12.1f %10.3f %7d %11s %9b\n"
        (scheme_abbrev o.Fault.Campaign.scheme)
        o.Fault.Campaign.clean.Board.Xu3.energy_delay
        o.Fault.Campaign.faulted.Board.Xu3.energy_delay
        o.Fault.Campaign.exd_inflation o.Fault.Campaign.extra_trips
        (match o.Fault.Campaign.recovery_s with
        | Some s -> Printf.sprintf "%.1f" s
        | None -> "never")
        o.Fault.Campaign.survived)
    outcomes;
  match Fault.Campaign.least_inflated outcomes with
  | Some o ->
    Printf.printf "# least degraded: %s (ExD x%.3f)\n"
      (scheme_abbrev o.Fault.Campaign.scheme)
      o.Fault.Campaign.exd_inflation
  | None -> ()

let robustness () =
  section "Robustness: scheme degradation under fault campaigns";
  let horizon = 60.0 in
  let count = 6 in
  let workloads = robustness_workloads () in
  let campaign title profile =
    let schedule = Fault.Schedule.generate ~seed:robustness_seed profile in
    Printf.printf "\n%s schedule (seed %d):\n" title robustness_seed;
    List.iter (fun f -> Printf.printf "  %s\n" (Fault.Spec.describe f)) schedule;
    let outcomes =
      Fault.Campaign.run ?max_time:(run_max_time ()) ~pool:!pool
        ~schemes:(robustness_schemes ()) ~workloads schedule
    in
    print_campaign (title ^ " campaign:") outcomes;
    Fault.Campaign.to_json ~schedule outcomes
  in
  let in_g =
    campaign "In-guardband" (Fault.Schedule.in_guardband ~horizon ~count ())
  in
  let out_g =
    campaign "Out-of-guardband"
      (Fault.Schedule.out_of_guardband ~horizon ~count ())
  in
  json_record "robustness"
    (Obs.Json.Obj
       [
         ("seed", Obs.Json.Int robustness_seed);
         ("in_guardband", in_g);
         ("out_of_guardband", out_g);
       ])

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md section 4)                                     *)
(* ------------------------------------------------------------------ *)

let ablation () =
  section "Ablation: value of coordination, optimizer, and sensors";
  let hw = Designs.hw () and sw = Designs.sw () in
  (* Quantization-aware synthesis vs the continuous-input assumption of
     the non-SSV designs (the Section VI-B failure mode). *)
  let hw_no_quant = Designs.hw_no_quant () in
  let full () = Schemes.yukta_full_stack hw sw in
  let variants =
    [
      ("Yukta full:", stack_run full);
      (* Without external signals: controllers synthesized with the
         externals zeroed at runtime (the information channel is cut). *)
      ( "... external signals zeroed:",
        stack_run (fun () -> Schemes.yukta_no_externals_stack hw sw) );
      ( "... optimizer off (fixed targets):",
        stack_run (fun () -> Schemes.yukta_fixed_targets_stack hw sw) );
      ( "... quantization-unaware HW design:",
        stack_run (fun () -> Schemes.yukta_full_stack hw_no_quant sw) );
      (* Power-sensor refresh period. *)
      ("... ideal power sensor (10 ms):", stack_run ~sensor_period:0.01 full);
      ("... slow power sensor (1 s):", stack_run ~sensor_period:1.0 full);
    ]
  in
  List.iter2
    (fun (label, _) r -> Printf.printf "  %-35s ExD = %.3f\n" label r)
    variants
    (avg_exd_vs_coord (List.map snd variants))

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

(* The figures in run order: each one's selector flags, its key in the
   JSON document and the wall-time block, and what generates it. *)
let figures =
  [
    ( [ "--tables" ],
      "tables",
      (fun () ->
        table2 ();
        table3 ();
        table4 ()),
      " Tables II-IV: controller specifications and the scheme registry" );
    ([ "--fig9" ], "fig9", fig9, " ExD and execution time, 4 schemes x suite");
    ([ "--fig10" ], "fig10", fig10, " Big-cluster power trace (blackscholes)");
    ([ "--fig11" ], "fig11", fig11, " Performance trace (blackscholes)");
    ( [ "--fig12"; "--fig13" ],
      "fig12_13",
      fig12_13,
      " LQG-based designs vs Yukta (one pass gives Figs. 12 and 13)" );
    ([ "--fig14" ], "fig14", fig14, " ExD on heterogeneous workload mixes");
    ([ "--cost" ], "cost", cost, " Section VI-D: controller cost and timings");
    ([ "--fig15" ], "fig15", fig15, " Sensitivity to output deviation bounds");
    ([ "--fig16" ], "fig16", fig16, " Sensitivity to the guardband");
    ([ "--fig17" ], "fig17", fig17, " Sensitivity to input weights");
    ( [ "--robustness" ],
      "robustness",
      robustness,
      " Seeded fault campaigns, in and out of the guardband" );
    ( [ "--ablation" ],
      "ablation",
      ablation,
      " Value of coordination, optimizer, quantization-awareness, sensors" );
  ]

let () =
  match List.tl (Array.to_list Sys.argv) with
  (* The subcommands, each with its own flags (BENCHMARKS.md): the
     kernel micro-benchmarks (bench/micro.ml), the perf-regression gate
     over two of their documents (bench/compare.ml), and the fleet,
     serving and design-space harnesses (bench/fleetbench.ml,
     bench/servebench.ml, bench/sweepbench.ml). *)
  | "micro" :: args -> Micro.main args
  | "compare" :: args -> exit (Compare.main args)
  | "fleet" :: args -> Fleetbench.main args
  | "serve" :: args -> Servebench.main args
  | "sweep" :: args -> Sweepbench.main args
  | args ->
    let selected = ref [] and all = ref false in
    let figure_specs =
      List.concat_map
        (fun (flags, key, _, doc) ->
          let select () = selected := key :: !selected in
          List.map (fun flag -> (flag, Arg.Unit select, doc)) flags)
        figures
    in
    Cli.parse "bench"
      "usage: bench [FIGURE...] [--smoke] [-j N] [--json OUT]\n\
      \       (no FIGURE flag, or --all, runs every figure)\n\
      \       bench micro|compare|fleet|serve|sweep ... (each answers --help)"
      (figure_specs
      @ [
          ("--all", Arg.Set all, " Every figure (the default)");
          Cli.smoke_spec
            " Two suite entries (one mix), simulated time capped at 120 s";
          Cli.json_spec;
        ]
      @ Cli.jobs_specs)
      args;
    let all = !all || !selected = [] in
    pool := Parallel.Pool.create ~jobs:!Cli.jobs;
    (* Synthesis timings are wall-clock and therefore nondeterministic;
       they join the JSON document only on full runs so that selective
       invocations (notably --robustness) stay byte-for-byte
       reproducible. *)
    if all && !Cli.json <> None then synthesis_json ();
    List.iter
      (fun (_, key, run, _) ->
        if all || List.mem key !selected then timed key run)
      figures;
    Cli.write_json (document ());
    Parallel.Pool.shutdown !pool
