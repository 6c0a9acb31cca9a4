(* The headline experiment, on one application:

     dune exec examples/multilayer_efficiency.exe [-- <app>]

   Runs the same workload under the industry-style Coordinated heuristic
   and under the full two-layer Yukta design (HW SSV + OS SSV, each with
   its E x D optimizer, coordinating through external signals), and prints
   the energy/delay comparison of Figure 9. *)

open Yukta

let run_and_report key workloads =
  let scheme = Schemes.find_exn key in
  let r = Schemes.run scheme workloads in
  let m = r.Stack.metrics in
  Printf.printf "%-28s time %7.1f s   energy %7.1f J   ExD %10.0f   trips %d\n%!"
    scheme.Schemes.name
    m.Board.Xu3.execution_time m.Board.Xu3.total_energy
    m.Board.Xu3.energy_delay m.Board.Xu3.trips;
  m

let () =
  let app = if Array.length Sys.argv > 1 then Sys.argv.(1) else "blackscholes" in
  let workloads = [ Board.Workload.by_name app ] in
  Printf.printf "application: %s (%.0f x 10^9 instructions)\n"
    app
    (Board.Workload.total_ginsts (List.hd workloads));
  Printf.printf "limits: Pbig < %.2f W, Plittle < %.2f W, T < %.0f C\n\n"
    Hw_layer.power_limit_big Hw_layer.power_limit_little Hw_layer.temp_limit;
  Printf.printf "synthesizing controllers (cached after the first run)...\n%!";
  ignore (Designs.hw ());
  ignore (Designs.sw ());
  let base = run_and_report "coord" workloads in
  let yukta = run_and_report "yukta" workloads in
  Printf.printf "\nYukta vs Coordinated heuristic:\n";
  Printf.printf "  execution time: %+.1f%%\n"
    (100.0
    *. ((yukta.Board.Xu3.execution_time /. base.Board.Xu3.execution_time) -. 1.0));
  Printf.printf "  E x D:          %+.1f%%\n"
    (100.0 *. ((yukta.Board.Xu3.energy_delay /. base.Board.Xu3.energy_delay) -. 1.0))
