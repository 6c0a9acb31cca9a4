(* Tests for the domain pool and the parallel evaluation paths: result
   ordering, exception propagation (no hangs), serial/parallel parity of
   Experiment.run_suite and Fault.Campaign.run, and the pool's
   deterministic capture/replay of collector events under fan-out. *)

open Board
open Yukta

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

exception Boom of int

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_ordering () =
  Parallel.Pool.with_pool ~jobs:4 (fun pool ->
      let xs = List.init 100 Fun.id in
      (* Uneven work so completion order differs from input order. *)
      let f i =
        let n = ref 0 in
        for _ = 1 to (i mod 7) * 10_000 do
          incr n
        done;
        ignore !n;
        i * i
      in
      let ys = Parallel.Pool.map pool f xs in
      check_bool "input order preserved" true
        (ys = List.map (fun i -> i * i) xs);
      check_bool "empty list" true (Parallel.Pool.map pool f [] = []))

let test_pool_serial_degeneration () =
  (* jobs = 1 spawns no domains and runs in the caller. *)
  Parallel.Pool.with_pool ~jobs:1 (fun pool ->
      let d = Domain.self () in
      let ys =
        Parallel.Pool.map pool (fun i -> (i, Domain.self () = d)) [ 1; 2; 3 ]
      in
      check_bool "caller's domain" true (List.for_all snd ys);
      check_bool "values" true (List.map fst ys = [ 1; 2; 3 ]))

let test_pool_exception () =
  Parallel.Pool.with_pool ~jobs:4 (fun pool ->
      let raised =
        match
          Parallel.Pool.map pool
            (fun i -> if i mod 3 = 0 then raise (Boom i) else i)
            (List.init 20 succ)
        with
        | _ -> None
        | exception Boom i -> Some i
      in
      (* Earliest failing input (3), not whichever worker lost the race. *)
      check_bool "earliest exception propagates" true (raised = Some 3);
      (* The pool survives a failed batch. *)
      let ys = Parallel.Pool.map pool succ [ 1; 2; 3 ] in
      check_bool "pool usable after exception" true (ys = [ 2; 3; 4 ]))

let test_map_reduce_streams_in_order () =
  Parallel.Pool.with_pool ~jobs:4 (fun pool ->
      let xs = List.init 200 Fun.id in
      (* Uneven work so completion order scrambles; the fold must still
         see results in input (slot) order. *)
      let f i =
        let n = ref 0 in
        for _ = 1 to (i mod 5) * 20_000 do
          incr n
        done;
        ignore !n;
        i
      in
      let folded =
        Parallel.Pool.map_reduce pool ~map:f ~init:[]
          ~reduce:(fun acc v -> v :: acc)
          xs
      in
      check_bool "fold saw slot order" true (List.rev folded = xs);
      check_bool "empty input returns init" true
        (Parallel.Pool.map_reduce pool ~map:f ~init:[ 9 ]
           ~reduce:(fun acc v -> v :: acc)
           []
        = [ 9 ]))

let test_map_reduce_jobs1_degenerates () =
  (* jobs = 1: a straight List.fold_left in the caller's domain — map
     and reduce both run here, strictly interleaved. *)
  Parallel.Pool.with_pool ~jobs:1 (fun pool ->
      let d = Domain.self () in
      let here = ref true in
      let trace = ref [] in
      let sum =
        Parallel.Pool.map_reduce pool
          ~map:(fun i ->
            here := !here && Domain.self () = d;
            trace := ("m" ^ string_of_int i) :: !trace;
            i)
          ~init:0
          ~reduce:(fun acc v ->
            trace := ("r" ^ string_of_int v) :: !trace;
            acc + v)
          [ 1; 2; 3 ]
      in
      check_int "sum" 6 sum;
      check_bool "ran in the caller's domain" true !here;
      check_bool "map and reduce strictly interleaved" true
        (List.rev !trace = [ "m1"; "r1"; "m2"; "r2"; "m3"; "r3" ]))

let test_map_reduce_fold_exception_mid_stream () =
  Parallel.Pool.with_pool ~jobs:4 (fun pool ->
      let folded = ref 0 in
      let raised =
        match
          Parallel.Pool.map_reduce pool ~map:Fun.id ~init:()
            ~reduce:(fun () v ->
              if v = 5 then raise (Boom v) else incr folded)
            (List.init 64 Fun.id)
        with
        | () -> None
        | exception Boom v -> Some v
      in
      (* The reduce raised mid-stream, after folding exactly inputs
         0..4: the failure surfaces and nothing later was folded. *)
      check_bool "fold exception propagates" true (raised = Some 5);
      check_int "folds before the failure" 5 !folded;
      (* In-flight tasks were drained; the pool takes the next batch. *)
      let ys = Parallel.Pool.map pool succ [ 1; 2; 3 ] in
      check_bool "pool usable after fold failure" true (ys = [ 2; 3; 4 ]))

let test_map_reduce_earliest_map_exception () =
  Parallel.Pool.with_pool ~jobs:4 (fun pool ->
      let raised =
        match
          Parallel.Pool.map_reduce pool
            ~map:(fun i -> if i mod 3 = 0 then raise (Boom i) else i)
            ~init:0 ~reduce:( + )
            (List.init 20 succ)
        with
        | _ -> None
        | exception Boom i -> Some i
      in
      check_bool "earliest failing input re-raises" true (raised = Some 3))

let test_map_reduce_window_bounded () =
  (* Issuance is gated on the fold cursor: with jobs = 2 the window is
     8 slots, and slot 0's successor (input 8) is issued only once the
     cursor has retrieved result 0 — so when the first reduce runs, at
     most 9 inputs can ever have started, however long the batch. *)
  Parallel.Pool.with_pool ~jobs:2 (fun pool ->
      let started = Atomic.make 0 in
      let max_seen_at_first_fold = ref (-1) in
      Parallel.Pool.map_reduce pool
        ~map:(fun i ->
          let rec bump () =
            let cur = Atomic.get started in
            let nxt = max cur (i + 1) in
            if not (Atomic.compare_and_set started cur nxt) then bump ()
          in
          bump ();
          i)
        ~init:()
        ~reduce:(fun () i ->
          if i = 0 then max_seen_at_first_fold := Atomic.get started)
        (List.init 100 Fun.id);
      check_bool "issuance gated on the fold cursor" true
        (!max_seen_at_first_fold <= 9 && !max_seen_at_first_fold >= 1))

let test_pool_validation () =
  let raises_invalid f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  check_bool "jobs = 0 rejected" true
    (raises_invalid (fun () -> Parallel.Pool.create ~jobs:0));
  let pool = Parallel.Pool.create ~jobs:2 in
  Parallel.Pool.shutdown pool;
  Parallel.Pool.shutdown pool (* idempotent *);
  check_bool "map after shutdown rejected" true
    (raises_invalid (fun () -> Parallel.Pool.map pool succ [ 1 ]))

(* ------------------------------------------------------------------ *)
(* Suite parity                                                        *)
(* ------------------------------------------------------------------ *)

(* Heuristic schemes only: no SSV synthesis in the test suite. *)
let schemes () = [ Schemes.find_exn "coord"; Schemes.find_exn "decoupled" ]

let entries () =
  [
    ("bs", [ Workload.scale ~ginsts:300.0 (Workload.by_name "blackscholes") ]);
    ("mcf", [ Workload.scale ~ginsts:300.0 (Workload.by_name "mcf") ]);
  ]

let test_run_suite_parity () =
  let serial =
    Experiment.run_suite ~max_time:120.0 ~schemes:(schemes ()) (entries ())
  in
  let parallel =
    Parallel.Pool.with_pool ~jobs:4 (fun pool ->
        Experiment.run_suite ~max_time:120.0 ~pool ~schemes:(schemes ())
          (entries ()))
  in
  check_bool "identical normalized_row lists" true (serial = parallel);
  (* A 1-job pool takes the serial path and agrees too. *)
  let one =
    Parallel.Pool.with_pool ~jobs:1 (fun pool ->
        Experiment.run_suite ~max_time:120.0 ~pool ~schemes:(schemes ())
          (entries ()))
  in
  check_bool "-j 1 equals serial" true (serial = one)

let test_suite_health_identical () =
  (* The fleet-health aggregate folds per-cell accumulators in row
     order, so its JSON must be byte-identical at any job count. *)
  let rows jobs =
    Parallel.Pool.with_pool ~jobs (fun pool ->
        Experiment.run_suite ~max_time:120.0 ~pool ~schemes:(schemes ())
          (entries ()))
  in
  let doc jobs =
    Obs.Json.to_string (Experiment.suite_health_json (rows jobs))
  in
  let serial =
    Obs.Json.to_string
      (Experiment.suite_health_json
         (Experiment.run_suite ~max_time:120.0 ~schemes:(schemes ())
            (entries ())))
  in
  Alcotest.(check string) "-j4 health equals serial" serial (doc 4);
  Alcotest.(check string) "-j1 health equals serial" serial (doc 1);
  check_bool "health block is non-trivial" true
    (String.length serial > 2
    && List.for_all
         (fun (s : Schemes.info) ->
           (* Every scheme keys an aggregate. *)
           Obs.Json.member s.Schemes.name (Obs.Json.of_string serial) <> None)
         (schemes ()))

let test_campaign_parity () =
  let workloads =
    [ Workload.scale ~ginsts:300.0 (Workload.by_name "blackscholes") ]
  in
  let schedule =
    Fault.Schedule.generate ~seed:7
      (Fault.Schedule.in_guardband ~horizon:40.0 ~count:3 ())
  in
  let serial =
    Fault.Campaign.run ~max_time:120.0 ~schemes:(schemes ()) ~workloads
      schedule
  in
  let parallel =
    Parallel.Pool.with_pool ~jobs:4 (fun pool ->
        Fault.Campaign.run ~max_time:120.0 ~pool ~schemes:(schemes ())
          ~workloads schedule)
  in
  check_bool "identical campaign outcomes" true (serial = parallel)

let test_worker_exception_propagates () =
  (* A raising cell must surface, not hang the grid. *)
  Parallel.Pool.with_pool ~jobs:4 (fun pool ->
      let raised =
        match
          Parallel.Pool.map pool
            (fun i -> if i = 2 then raise (Boom i) else i)
            [ 1; 2; 3; 4 ]
        with
        | _ -> false
        | exception Boom 2 -> true
      in
      check_bool "cell exception propagates" true raised)

(* ------------------------------------------------------------------ *)
(* Capture / replay determinism                                        *)
(* ------------------------------------------------------------------ *)

let emit_cell i =
  Obs.Collector.event ~name:"test.cell" ~sim:(Float.of_int i)
    (fun () -> [ ("cell", Obs.Json.Int i) ]);
  i

let with_buffer_collection f =
  let v =
    Obs.Collector.with_collection (fun () ->
        let v = f () in
        (* Lines so far, before with_collection appends metric dumps. *)
        (v, Obs.Collector.drain ()))
  in
  v

let fold_cell n i =
  Obs.Collector.event ~name:"test.fold" ~sim:(Float.of_int i) (fun () ->
      [ ("folded", Obs.Json.Int n) ]);
  n + 1

let test_capture_replay_order () =
  (* Each cell's event and the fold's own event, cell by cell: the pool
     replays a task's captured lines just before folding its result, so
     the stream interleaves exactly as a serial fold's does. *)
  let cells = List.init 16 Fun.id in
  let folded jobs =
    with_buffer_collection (fun () ->
        Parallel.Pool.with_pool ~jobs (fun pool ->
            Parallel.Pool.map_reduce pool ~map:emit_cell ~init:0
              ~reduce:fold_cell cells))
  in
  let serial_n, serial_lines =
    with_buffer_collection (fun () ->
        List.fold_left (fun n c -> fold_cell n (emit_cell c)) 0 cells)
  in
  let one_n, one_lines = folded 1 in
  let parallel_n, parallel_lines = folded 4 in
  check_int "every cell folded" (List.length cells) parallel_n;
  check_bool "one-job pool equals a serial fold" true
    (one_n = serial_n && one_lines = serial_lines);
  check_int "two lines per cell" (2 * List.length cells)
    (List.length parallel_lines);
  check_bool "trace order identical to serial" true
    (serial_lines = parallel_lines)

let test_capture_nests () =
  let (v, inner), outer = Obs.Collector.capture (fun () ->
      Obs.Collector.capture (fun () ->
          Obs.Collector.replay [ "a"; "b" ];
          42))
  in
  check_int "value" 42 v;
  check_bool "inner capture got the replayed lines" true
    (inner = [ "a"; "b" ]);
  check_bool "outer capture empty" true (outer = [])

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "ordering" `Quick test_pool_ordering;
          Alcotest.test_case "serial degeneration" `Quick
            test_pool_serial_degeneration;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception;
          Alcotest.test_case "map_reduce streams in order" `Quick
            test_map_reduce_streams_in_order;
          Alcotest.test_case "map_reduce jobs=1 degenerates" `Quick
            test_map_reduce_jobs1_degenerates;
          Alcotest.test_case "map_reduce fold exception mid-stream" `Quick
            test_map_reduce_fold_exception_mid_stream;
          Alcotest.test_case "map_reduce earliest map exception" `Quick
            test_map_reduce_earliest_map_exception;
          Alcotest.test_case "map_reduce window bounded" `Quick
            test_map_reduce_window_bounded;
          Alcotest.test_case "validation" `Quick test_pool_validation;
        ] );
      ( "suite",
        [
          Alcotest.test_case "run_suite -j1/-j4 parity" `Quick
            test_run_suite_parity;
          Alcotest.test_case "health aggregate -j1/-j4 byte-identity" `Quick
            test_suite_health_identical;
          Alcotest.test_case "campaign parity" `Quick test_campaign_parity;
          Alcotest.test_case "worker exception propagates" `Quick
            test_worker_exception_propagates;
        ] );
      ( "capture",
        [
          Alcotest.test_case "replay order deterministic" `Quick
            test_capture_replay_order;
          Alcotest.test_case "capture nests" `Quick test_capture_nests;
        ] );
    ]
