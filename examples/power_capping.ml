(* Power capping with fixed targets (the Figure 15(a)/17 usage).

     dune exec examples/power_capping.exe [-- <app>]

   The basic use of a multilayer SSV controller: every output is given a
   fixed target, and the controllers hold the system there — big-cluster
   power at 2.5 W here — through workload phase changes, using only the
   sampled sensors and the quantized knobs. *)

open Yukta

let () =
  let app = if Array.length Sys.argv > 1 then Sys.argv.(1) else "blackscholes" in
  Printf.printf "loading controller designs (cached after the first run)...\n%!";
  let hw = Designs.hw () and sw = Designs.sw () in
  let hw_targets = [| 5.5; 2.5; 0.2; 70.0 |] in
  let sw_targets = [| 1.0; 4.5; 1.0 |] in
  Printf.printf
    "targets: perf 5.5 BIPS, Pbig 2.5 W, Plittle 0.2 W, T 70 C\n\n";
  let trace =
    (Stack.run ~max_time:80.0 ~collect_trace:true
       (Schemes.fixed_targets_stack ~hw_design:hw ~sw_design:sw ~hw_targets
          ~sw_targets)
       [ Board.Workload.by_name app ])
      .Stack.trace
  in
  Printf.printf "%8s %10s %10s %8s\n" "time(s)" "Pbig(W)" "BIPS" "T(C)";
  Array.iteri
    (fun i (p : Stack.trace_point) ->
      if i mod 8 = 0 then
        Printf.printf "%8.1f %10.2f %10.2f %8.1f\n" p.Stack.time p.power_big
          p.bips p.temperature)
    trace;
  (* Steady-state tracking quality. *)
  let errs =
    Array.to_list trace
    |> List.filteri (fun i _ -> i > 40)
    |> List.map (fun (p : Stack.trace_point) -> p.power_big -. 2.5)
  in
  if errs <> [] then begin
    let n = Float.of_int (List.length errs) in
    let mean = List.fold_left ( +. ) 0.0 errs /. n in
    let rms =
      Float.sqrt (List.fold_left (fun a e -> a +. (e *. e)) 0.0 errs /. n)
    in
    Printf.printf
      "\nsteady-state big-cluster power: mean error %+.3f W, rms %.3f W\n"
      mean rms;
    Printf.printf "(designer bound: +-%.2f W)\n"
      (Signal.bound_absolute (Hw_layer.outputs ()).(1))
  end
