(* Tests for the fleet layer: per-board seed derivation, rack
   apportionment (all three policies), the cap surface's no-cap parity
   contract, and the streaming fleet driver's serial/parallel
   byte-identity, of its results and of its event stream, at any split
   of the running boards into ranges. *)

open Board
open Yukta

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let raises_invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Seed derivation                                                     *)
(* ------------------------------------------------------------------ *)

let test_seed_derivation () =
  let d = Fleet.Seed.derive in
  check_int "pure function" (d ~fleet_seed:42 ~board:7 ~stream:0)
    (d ~fleet_seed:42 ~board:7 ~stream:0);
  check_bool "non-negative" true
    (List.for_all
       (fun b -> d ~fleet_seed:42 ~board:b ~stream:1 >= 0)
       (List.init 64 Fun.id));
  (* Distinctness across boards, streams and fleet seeds: one collision
     among a few thousand 30-bit draws would be suspicious mixing. *)
  let seen = Hashtbl.create 4096 in
  for fleet_seed = 0 to 3 do
    for board = 0 to 255 do
      for stream = 0 to 1 do
        Hashtbl.replace seen (d ~fleet_seed ~board ~stream) ()
      done
    done
  done;
  check_int "no collisions across (seed, board, stream)" (4 * 256 * 2)
    (Hashtbl.length seen);
  check_bool "negative board rejected" true
    (raises_invalid (fun () -> d ~fleet_seed:1 ~board:(-1) ~stream:0))

(* ------------------------------------------------------------------ *)
(* Rack apportionment                                                  *)
(* ------------------------------------------------------------------ *)

let near ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let sum = Array.fold_left ( +. ) 0.0

let test_rack_even_split_static () =
  let r = Fleet.Rack.make ~policy:Fleet.Rack.Even_split ~boards:4 ~cap:8.0 () in
  check_bool "initial apportionment is fair" true
    (Array.for_all (near 2.0) (Fleet.Rack.caps r));
  (* Wildly skewed measurements must not move the static baseline. *)
  Fleet.Rack.step r ~power:[| 4.0; 0.1; 0.1; 0.1 |]
    ~progress:[| 0.1; 0.9; 0.9; 0.9 |]
    ~active:[| true; true; true; true |];
  check_bool "even split never moves" true
    (Array.for_all (near 2.0) (Fleet.Rack.caps r))

let test_rack_proportional_tracks_demand () =
  let r =
    Fleet.Rack.make ~policy:Fleet.Rack.Proportional ~boards:2 ~cap:4.0 ()
  in
  for _ = 1 to 6 do
    Fleet.Rack.step r ~power:[| 3.0; 0.5 |] ~progress:[| 0.2; 0.2 |]
      ~active:[| true; true |]
  done;
  let caps = Fleet.Rack.caps r in
  check_bool "hungry board gets the larger share" true (caps.(0) > caps.(1));
  check_bool "budget fully distributed" true (near ~eps:1e-6 (sum caps) 4.0);
  check_bool "floor respected" true (Array.for_all (fun c -> c >= 0.45) caps)

let test_rack_waterfill_ceiling () =
  (* With far more budget than two boards can draw, each allocation
     saturates at the sustained board ceiling instead of absorbing the
     surplus. *)
  let r =
    Fleet.Rack.make ~policy:Fleet.Rack.Proportional ~boards:2 ~cap:100.0 ()
  in
  Fleet.Rack.step r ~power:[| 3.0; 2.0 |] ~progress:[| 0.5; 0.5 |]
    ~active:[| true; true |];
  check_bool "allocations saturate at the board ceiling" true
    (Array.for_all (near Fleet.Rack.board_ceiling) (Fleet.Rack.caps r))

let test_rack_feedback_trim () =
  let r =
    Fleet.Rack.make ~policy:Fleet.Rack.Feedback ~boards:2 ~cap:6.0 ()
  in
  check_bool "trim starts neutral" true (near (Fleet.Rack.trim r) 1.0);
  (* Sustained underdraw: measured total well below the budget, so the
     trim integrates upward (capped at 1.3). *)
  for _ = 1 to 20 do
    Fleet.Rack.step r ~power:[| 1.0; 1.0 |] ~progress:[| 0.3; 0.3 |]
      ~active:[| true; true |]
  done;
  let high = Fleet.Rack.trim r in
  check_bool "underdraw raises the trim" true (high > 1.0 && high <= 1.3);
  (* Sustained overdraw pulls it back down (floored at 0.8). *)
  for _ = 1 to 40 do
    Fleet.Rack.step r ~power:[| 5.0; 5.0 |] ~progress:[| 0.5; 0.5 |]
      ~active:[| true; true |]
  done;
  let low = Fleet.Rack.trim r in
  check_bool "overdraw lowers the trim" true (low < high && low >= 0.8)

let test_rack_inactive_boards_release_budget () =
  let r =
    Fleet.Rack.make ~policy:Fleet.Rack.Proportional ~boards:3 ~cap:4.5 ()
  in
  Fleet.Rack.step r ~power:[| 1.4; 1.4; 0.0 |] ~progress:[| 0.5; 0.5; 1.0 |]
    ~active:[| true; true; false |];
  let caps = Fleet.Rack.caps r in
  check_bool "finished board drops to the floor" true (near caps.(2) 0.45);
  check_bool "running boards inherit the released budget" true
    (caps.(0) > 1.5 && caps.(1) > 1.5)

let test_rack_validation () =
  check_bool "boards = 0 rejected" true
    (raises_invalid (fun () ->
         Fleet.Rack.make ~policy:Fleet.Rack.Even_split ~boards:0 ~cap:1.0 ()));
  check_bool "cap = 0 rejected" true
    (raises_invalid (fun () ->
         Fleet.Rack.make ~policy:Fleet.Rack.Even_split ~boards:1 ~cap:0.0 ()));
  let r = Fleet.Rack.make ~policy:Fleet.Rack.Proportional ~boards:2 ~cap:2.0 () in
  check_bool "mismatched measurement arrays rejected" true
    (raises_invalid (fun () ->
         Fleet.Rack.step r ~power:[| 1.0 |] ~progress:[| 0.0; 0.0 |]
           ~active:[| true; true |]))

let test_policy_names_round_trip () =
  List.iter
    (fun p ->
      check_bool "name parses back" true
        (Fleet.Rack.policy_of_string (Fleet.Rack.policy_name p) = Some p))
    [ Fleet.Rack.Even_split; Fleet.Rack.Proportional; Fleet.Rack.Feedback ];
  check_bool "aliases parse" true
    (Fleet.Rack.policy_of_string "static" = Some Fleet.Rack.Even_split
    && Fleet.Rack.policy_of_string "prop" = Some Fleet.Rack.Proportional
    && Fleet.Rack.policy_of_string "LQG" = Some Fleet.Rack.Feedback);
  check_bool "junk rejected" true (Fleet.Rack.policy_of_string "rr" = None)

(* ------------------------------------------------------------------ *)
(* The cap surface: no-cap parity and enforcement                      *)
(* ------------------------------------------------------------------ *)

let cap_workloads () =
  [ Workload.scale ~ginsts:30.0 (Workload.by_name "blackscholes") ]

let coord_stack () = Schemes.stack (Schemes.find_exn "coord")

let batch_metrics () =
  (Stack.run ~max_time:120.0 (coord_stack ()) (cap_workloads ()))
    .Stack.metrics

(* The per-board loop [Fleet.Sim] runs: the cap imposed on the board
   ([Xu3.set_power_cap]) and forwarded to every layer ([Stack.step]). *)
let capped_metrics cap =
  let stack = coord_stack () in
  let board = Xu3.create (cap_workloads ()) in
  Stack.reset stack;
  Xu3.set_power_cap board cap;
  while (not (Xu3.finished board)) && Xu3.time board < 120.0 do
    let o = Xu3.run_epoch board Stack.default_epoch in
    Stack.step ?cap stack board o
  done;
  Xu3.metrics board

let test_cap_absent_is_bit_identical () =
  let bare = batch_metrics () in
  check_bool "no cap reproduces Stack.run" true (capped_metrics None = bare);
  (* A cap far above what the board can draw never trips the limiter,
     and the heuristic stack ignores it: same trajectory. *)
  check_bool "unreachable cap is bit-identical" true
    (capped_metrics (Some 1000.0) = bare)

let test_tight_cap_enforced () =
  let bare = batch_metrics () in
  let capped = capped_metrics (Some 1.0) in
  check_bool "tight cap trips the power_cap limiter" true
    (capped.Xu3.trips > bare.Xu3.trips);
  check_bool "tight cap slows the run" true
    (capped.Xu3.execution_time > bare.Xu3.execution_time)

let test_cap_targets_identity () =
  let targets = [| 8.0; 3.3; 0.33; 79.0 |] in
  check_bool "cap at the budget returns the same vector" true
    (Hw_layer.cap_targets ~cap:Hw_layer.board_power_budget targets == targets);
  let scaled = Hw_layer.cap_targets ~cap:1.8 targets in
  check_bool "tight cap returns a fresh vector" true (scaled != targets);
  check_bool "power targets scale down" true
    (scaled.(1) < targets.(1) && scaled.(2) < targets.(2));
  check_bool "non-power targets untouched" true
    (scaled.(0) = targets.(0) && scaled.(3) = targets.(3))

(* ------------------------------------------------------------------ *)
(* The streaming fleet driver                                          *)
(* ------------------------------------------------------------------ *)

let small_cfg ?(policy = Fleet.Rack.Feedback) () =
  Fleet.Sim.config ~policy ~ginsts:20.0 ~max_time:60.0 ~boards:8 ()

let test_sim_completes () =
  let r = Fleet.Sim.run (small_cfg ()) in
  check_int "every board finishes" 8 r.Fleet.Sim.completed;
  check_bool "work happened" true
    (r.Fleet.Sim.board_epochs > 0
    && r.Fleet.Sim.rack_epochs > 0
    && r.Fleet.Sim.makespan > 0.0
    && r.Fleet.Sim.energy > 0.0)

let test_sim_serial_parallel_byte_identical () =
  (* The acceptance contract: the folded fleet aggregates — everything
     in the "fleet" JSON block — are byte-identical at any job count. *)
  let doc r = Obs.Json.to_string (Fleet.Sim.json r) in
  let serial = doc (Fleet.Sim.run (small_cfg ())) in
  let j4 =
    Parallel.Pool.with_pool ~jobs:4 (fun pool ->
        doc (Fleet.Sim.run ~pool (small_cfg ())))
  in
  let j1 =
    Parallel.Pool.with_pool ~jobs:1 (fun pool ->
        doc (Fleet.Sim.run ~pool (small_cfg ())))
  in
  Alcotest.(check string) "-j4 equals serial" serial j4;
  Alcotest.(check string) "-j1 equals serial" serial j1

(* Spans carry wall-clock durations; every other line is deterministic. *)
let non_span =
  List.filter (fun l -> not (String.starts_with ~prefix:{|{"type":"span"|} l))

let test_sim_events_identical () =
  (* The pool replays each board range's captured events in board order,
     so the trace stream matches the one-job run line for line. *)
  let events jobs =
    Obs.Collector.with_collection (fun () ->
        Parallel.Pool.with_pool ~jobs (fun pool ->
            ignore (Fleet.Sim.run ~pool (small_cfg ())));
        Obs.Collector.drain ())
    |> non_span
  in
  let j1 = events 1 in
  let j4 = events 4 in
  check_bool "board events emitted" true (List.length j1 > 8);
  check_int "same line count" (List.length j1) (List.length j4);
  check_bool "-j4 event lines equal -j1" true (j1 = j4)

(* The fan-out splits the running boards into [Pool.window] contiguous
   ranges, so the partition moves with the job count and shrinks as
   boards finish; the fold must not. Up to 48 boards at 1-4 jobs puts
   several boards in a range. Over 20-40 Ginsts the boards finish in
   different rack epochs, and a horizon of 4-15 rack epochs cuts some
   fleets before their last board does. *)
let prop_ranges_fold_like_serial =
  let policies =
    [ Fleet.Rack.Even_split; Fleet.Rack.Proportional; Fleet.Rack.Feedback ]
  in
  let gen =
    QCheck.Gen.(
      tup6 (int_range 1 48) (int_range 1 4) (int_bound 100_000)
        (oneofl policies) (int_range 20 40) (int_range 4 15))
  in
  let print (boards, jobs, seed, policy, ginsts, racks) =
    Printf.sprintf "boards=%d jobs=%d seed=%d policy=%s ginsts=%d racks=%d"
      boards jobs seed (Fleet.Rack.policy_name policy) ginsts racks
  in
  QCheck.Test.make ~name:"board ranges fold like the serial run" ~count:25
    (QCheck.make ~print gen)
    (fun (boards, jobs, seed, policy, ginsts, racks) ->
      let cfg =
        Fleet.Sim.config ~policy ~seed ~ginsts:(float_of_int ginsts)
          ~max_time:(2.0 *. float_of_int racks) ~boards ()
      in
      let observe run =
        Obs.Collector.with_collection (fun () ->
            let doc = Obs.Json.to_string (Fleet.Sim.json (run ())) in
            (doc, non_span (Obs.Collector.drain ())))
      in
      observe (fun () -> Fleet.Sim.run cfg)
      = Parallel.Pool.with_pool ~jobs (fun pool ->
            observe (fun () -> Fleet.Sim.run ~pool cfg)))

let test_feedback_beats_even_split () =
  (* The rack-layer headline at the bench-default scale: under a
     contended shared budget the feedback policy reallocates stranded
     headroom and finishes the fleet cheaper than the static split. *)
  let cfg policy = Fleet.Sim.config ~policy ~boards:64 () in
  Parallel.Pool.with_pool ~jobs:4 (fun pool ->
      let even = Fleet.Sim.run ~pool (cfg Fleet.Rack.Even_split) in
      let feedback = Fleet.Sim.run ~pool (cfg Fleet.Rack.Feedback) in
      check_int "even split completes the fleet" 64 even.Fleet.Sim.completed;
      check_int "feedback completes the fleet" 64 feedback.Fleet.Sim.completed;
      check_bool "feedback lowers fleet ExD" true
        (feedback.Fleet.Sim.exd < even.Fleet.Sim.exd))

let test_sim_config_validation () =
  check_bool "boards = 0 rejected" true
    (raises_invalid (fun () -> Fleet.Sim.config ~boards:0 ()));
  check_bool "negative budget rejected" true
    (raises_invalid (fun () ->
         Fleet.Sim.config ~cap_per_board:(-1.0) ~boards:2 ()))

let () =
  Alcotest.run "fleet"
    [
      ( "seed",
        [ Alcotest.test_case "derivation" `Quick test_seed_derivation ] );
      ( "rack",
        [
          Alcotest.test_case "even split is static" `Quick
            test_rack_even_split_static;
          Alcotest.test_case "proportional tracks demand" `Quick
            test_rack_proportional_tracks_demand;
          Alcotest.test_case "water-fill saturates at the ceiling" `Quick
            test_rack_waterfill_ceiling;
          Alcotest.test_case "feedback trim integrates headroom" `Quick
            test_rack_feedback_trim;
          Alcotest.test_case "inactive boards release budget" `Quick
            test_rack_inactive_boards_release_budget;
          Alcotest.test_case "validation" `Quick test_rack_validation;
          Alcotest.test_case "policy names round-trip" `Quick
            test_policy_names_round_trip;
        ] );
      ( "cap",
        [
          Alcotest.test_case "no cap is bit-identical" `Quick
            test_cap_absent_is_bit_identical;
          Alcotest.test_case "tight cap enforced" `Quick
            test_tight_cap_enforced;
          Alcotest.test_case "cap_targets identity above budget" `Quick
            test_cap_targets_identity;
        ] );
      ( "sim",
        [
          Alcotest.test_case "fleet completes" `Quick test_sim_completes;
          Alcotest.test_case "-j1/-j4 byte-identity" `Quick
            test_sim_serial_parallel_byte_identical;
          Alcotest.test_case "-j1/-j4 event lines identical" `Quick
            test_sim_events_identical;
          QCheck_alcotest.to_alcotest prop_ranges_fold_like_serial;
          Alcotest.test_case "feedback beats even split" `Quick
            test_feedback_beats_even_split;
          Alcotest.test_case "config validation" `Quick
            test_sim_config_validation;
        ] );
    ]
