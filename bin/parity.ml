(* Full-precision metrics for every registered scheme on fixed short
   workloads, then the synthesized designs' bits.

   The output is meant to be diffed across refactors of the runtime: any
   change in a scheme's stepping order, optimizer cadence, or signal
   wiring shows up as a bit-level difference in these numbers. All apps
   run in one process, so the controller designs are synthesized once.
   The closing [design] lines pin the synthesis itself: mu_peak and
   gamma in hex ([%h]) and a digest of the controller's A/B/C/D bits,
   for the default hardware and software designs and one non-default
   hardware spec (guardband 2.5, input weight 0.5, bound 0.5).

     dune exec bin/parity.exe                      -- blackscholes
     dune exec bin/parity.exe -- blackscholes mcf  -- several workloads

   Between the scheme lines and the design lines, [fault] lines replay
   two seeded fault schedules (in and out of the design guardband)
   against coord and yukta on the first workload, and one [fleet] line
   runs a small fleet under a contended rack cap: together they pin the
   board's injector and power-cap arms, which the plain runs never take.

   test/parity.expected holds this output for blackscholes and mcf and
   `dune runtest` diffs it; after an intended change of numbers,
   regenerate it with `dune runtest` followed by `dune promote`. *)

(* MD5 of the controller's A, B, C and D entries, in that order, as
   little-endian IEEE bit patterns. *)
let controller_digest (d : Yukta.Design.synthesis) =
  let sys = Yukta.Controller.internal d.Yukta.Design.controller in
  let buf = Buffer.create 8192 in
  List.iter
    (fun (m : Linalg.Mat.t) ->
      Array.iter
        (fun x -> Buffer.add_int64_le buf (Int64.bits_of_float x))
        m.Linalg.Mat.data)
    Control.Ss.[ sys.a; sys.b; sys.c; sys.d ];
  (Control.Ss.order sys, Digest.to_hex (Digest.string (Buffer.contents buf)))

let print_design label (d : Yukta.Design.synthesis) =
  let order, digest = controller_digest d in
  Printf.printf "design %-22s mu_peak=%h gamma=%h states=%d abcd=%s\n%!" label
    d.Yukta.Design.mu_peak d.Yukta.Design.gamma order digest

let workload app =
  Board.Workload.scale ~ginsts:150.0 (Board.Workload.by_name app)

(* The schedules start their faults within the run: the 20 s horizon
   covers the workload's ~16-18 s clean makespan under either scheme. *)
let print_campaigns app =
  let schemes = List.map Yukta.Schemes.find_exn [ "coord"; "yukta" ] in
  List.iter
    (fun (label, profile) ->
      let schedule = Fault.Schedule.generate ~seed:42 profile in
      List.iter
        (fun (o : Fault.Campaign.outcome) ->
          let m = o.Fault.Campaign.faulted in
          Printf.printf
            "fault %-12s %-4s %-28s time=%.17g energy=%.17g exd=%.17g \
             trips=%d injections=%d\n%!"
            app label o.Fault.Campaign.scheme.Yukta.Schemes.name
            m.Board.Xu3.execution_time m.Board.Xu3.total_energy
            m.Board.Xu3.energy_delay m.Board.Xu3.trips
            o.Fault.Campaign.injections)
        (Fault.Campaign.run ~schemes ~workloads:[ workload app ] schedule))
    [
      ("in", Fault.Schedule.in_guardband ~horizon:20.0 ());
      ("out", Fault.Schedule.out_of_guardband ~horizon:20.0 ());
    ]

let print_fleet () =
  let r = Fleet.Sim.run (Fleet.Sim.config ~boards:8 ~max_time:16.0 ()) in
  Printf.printf "fleet boards=%d exd=%.17g trips=%d\n%!" r.Fleet.Sim.cfg.boards
    r.Fleet.Sim.exd r.Fleet.Sim.trips

let () =
  let apps =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> [ "blackscholes" ]
    | apps -> apps
  in
  List.iter
    (fun app ->
      let w = workload app in
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
    apps;
  print_campaigns (List.hd apps);
  print_fleet ();
  print_design "hw" (Yukta.Designs.hw ());
  print_design "sw" (Yukta.Designs.sw ());
  print_design "hw d2.5 w0.5 b0.5"
    (Yukta.Designs.design_hw_with
       (Yukta.Hw_layer.spec ~uncertainty:2.5 ~input_weight:0.5 ~perf_bound:0.5
          ()))
