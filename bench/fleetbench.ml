(* The fleet harness: N boards, each under its own per-board stack, one
   shared rack power budget apportioned by the Fleet.Rack policies, all
   streamed over the domain pool (no per-board result list is ever
   materialized — see lib/fleet/sim.ml).

     dune exec bench/main.exe -- fleet                  -- 64 boards, 3 policies
     dune exec bench/main.exe -- fleet --boards 1024 -j 8
     dune exec bench/main.exe -- fleet --smoke -j 2 --json OUT
     dune exec bench/main.exe -- fleet --policy feedback --cap 1.2

   Headline numbers: fleet E x D per rack policy (normalized to the
   static even split) and streaming throughput in board epochs per wall
   second. The --json document's "fleet" block holds only simulated
   quantities, so it is byte-identical at any -j; wall clock and
   throughput land in the "bench" block. Schema in BENCHMARKS.md. This
   is the one fleet front-end: [--policy feedback] alone is a single
   64-board coord run at 1.6 W per board, seed 42. *)

let policies =
  [ Fleet.Rack.Even_split; Fleet.Rack.Proportional; Fleet.Rack.Feedback ]

let main args =
  let boards = ref 0 in
  let cap = ref None in
  let policy = ref None in
  let scheme = ref "coord" in
  let seed = ref 42 in
  let set_policy p =
    match Fleet.Rack.policy_of_string p with
    | Some v -> policy := Some v
    | None ->
      Cli.bad "unknown policy %S (even-split, proportional, feedback)" p
  in
  Cli.parse "bench fleet" "usage: bench fleet [FLAG...]"
    ([
       Cli.smoke_spec " 8 boards, 60 s horizon, smaller workloads";
       Cli.json_spec;
       Cli.count "--boards" (fun n -> boards := n) "N Boards (default 64)";
       Cli.positive "--cap" (fun w -> cap := Some w)
         "W Shared rack budget per board, watts (default 1.6)";
       ( "--policy",
         Arg.String set_policy,
         "P Run only even-split, proportional or feedback (default: all)" );
       Cli.scheme_spec scheme "S Per-board scheme (default coord)";
       Cli.count "--seed" (( := ) seed) "N Fleet seed (default 42)";
     ]
    @ Cli.jobs_specs)
    args;
  let smoke = !Cli.smoke in
  let boards = if !boards > 0 then !boards else if smoke then 8 else 64 in
  let max_time = if smoke then 60.0 else 240.0 in
  let ginsts = if smoke then 20.0 else 60.0 in
  let config policy =
    Fleet.Sim.config ?cap_per_board:!cap ~policy ~scheme:!scheme ~seed:!seed
      ~max_time ~ginsts ~boards ()
  in
  let run_policies = match !policy with Some p -> [ p ] | None -> policies in
  let pool = Parallel.Pool.create ~jobs:!Cli.jobs in
  let c0 = config (List.hd run_policies) in
  Printf.printf
    "fleet: %d boards x %s, budget %.1f W (%.2f W/board), %s, seed %d, -j %d\n"
    boards !scheme c0.Fleet.Sim.cap
    (c0.Fleet.Sim.cap /. float_of_int boards)
    (if smoke then "smoke horizon" else "full horizon")
    !seed !Cli.jobs;
  Printf.printf "%-14s %6s %6s %10s %10s %12s %8s %6s %12s\n" "policy"
    "racks" "done" "makespan" "energy(J)" "ExD(J.s)" "over(s)" "trips"
    "epochs/s";
  let results =
    List.map
      (fun p ->
        let t0 = Obs.Collector.now () in
        let r = Fleet.Sim.run ~pool (config p) in
        let wall = Obs.Collector.now () -. t0 in
        let throughput =
          if wall > 0.0 then float_of_int r.Fleet.Sim.board_epochs /. wall
          else 0.0
        in
        Printf.printf "%-14s %6d %4d/%d %9.1fs %10.1f %12.1f %8.1f %6d %12.1f\n%!"
          (Fleet.Rack.policy_name p) r.Fleet.Sim.rack_epochs
          r.Fleet.Sim.completed boards r.Fleet.Sim.makespan
          r.Fleet.Sim.energy r.Fleet.Sim.exd r.Fleet.Sim.cap_violation_s
          r.Fleet.Sim.trips throughput;
        (p, r, wall, throughput))
      run_policies
  in
  (match
     List.find_opt (fun (p, _, _, _) -> p = Fleet.Rack.Even_split) results
   with
  | Some (_, base, _, _) when base.Fleet.Sim.exd > 0.0 ->
    List.iter
      (fun (p, r, _, _) ->
        if p <> Fleet.Rack.Even_split then
          Printf.printf "# %-14s fleet ExD x%.3f vs even-split\n"
            (Fleet.Rack.policy_name p)
            (r.Fleet.Sim.exd /. base.Fleet.Sim.exd))
      results
  | _ -> ());
  Cli.write_json
    (Obs.Json.Obj
       [
         ("schema", Obs.Json.String "yukta.bench-fleet/v1");
         ("smoke", Obs.Json.Bool smoke);
         ( "fleet",
           Obs.Json.Obj
             (List.map
                (fun (p, r, _, _) ->
                  (Fleet.Rack.policy_name p, Fleet.Sim.json r))
                results) );
         ( "bench",
           Obs.Json.Obj
             [
               ("jobs", Obs.Json.Int !Cli.jobs);
               ( "wall_s",
                 Obs.Json.Obj
                   (List.map
                      (fun (p, _, wall, _) ->
                        (Fleet.Rack.policy_name p, Obs.Json.Float wall))
                      results) );
               ( "board_epochs_per_s",
                 Obs.Json.Obj
                   (List.map
                      (fun (p, _, _, tp) ->
                        (Fleet.Rack.policy_name p, Obs.Json.Float tp))
                      results) );
             ] );
       ]);
  Parallel.Pool.shutdown pool
