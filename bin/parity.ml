(* Full-precision metrics for every registered scheme on fixed short
   workloads.

   The output is meant to be diffed across refactors of the runtime: any
   change in a scheme's stepping order, optimizer cadence, or signal
   wiring shows up as a bit-level difference in these numbers. All apps
   run in one process, so the controller designs are synthesized once.

     dune exec bin/parity.exe                      -- blackscholes
     dune exec bin/parity.exe -- blackscholes mcf  -- several workloads

   test/parity.expected holds this output for blackscholes and mcf and
   `dune runtest` diffs it; after an intended change of numbers,
   regenerate it with `dune runtest` followed by `dune promote`. *)

let () =
  let apps =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> [ "blackscholes" ]
    | apps -> apps
  in
  List.iter
    (fun app ->
      let w = Board.Workload.scale ~ginsts:150.0 (Board.Workload.by_name app) in
      List.iter
        (fun (scheme : Yukta.Schemes.info) ->
          let r = Yukta.Schemes.run ~max_time:1000.0 scheme [ w ] in
          let m = r.Yukta.Stack.metrics in
          Printf.printf
            "%-12s %-28s time=%.17g energy=%.17g exd=%.17g trips=%d done=%b\n%!"
            app scheme.Yukta.Schemes.name m.Board.Xu3.execution_time
            m.Board.Xu3.total_energy m.Board.Xu3.energy_delay m.Board.Xu3.trips
            r.Yukta.Stack.completed)
        Yukta.Schemes.all)
    apps
