(* Tests for the design-space sweep farm: point enumeration and
   sampling, frontier dominance properties (qcheck), checkpoint
   load/resume semantics (including the kill-mid-append signature),
   shard striping, shard-document merging, and the end-to-end
   determinism contract (-j1 vs -j4 byte-identity, kill/resume,
   sharded-then-merged vs single-shot). *)

open Sweep

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let raises_invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* [f] on a fresh directory under the system temp directory, removed
   afterwards whatever [f] does. *)
let with_scratch_dir f =
  let dir = Filename.temp_dir "yukta_sweep_test" "" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Space                                                               *)
(* ------------------------------------------------------------------ *)

let test_space_cardinality () =
  check_int "default grid" 243 (Space.cardinality Space.default);
  check_int "smoke grid" 8 (Space.cardinality Space.smoke);
  let tiny =
    Space.make ~deltas:[| 1.0 |] ~weights:[| 1.0; 2.0 |] ~bounds:[| 0.2 |]
      ~epochs:[| 0.5 |] ~arrangements:[| Space.Hw_only |] ()
  in
  check_int "product of axis lengths" 2 (Space.cardinality tiny)

let test_space_validation () =
  check_bool "empty axis rejected" true
    (raises_invalid (fun () -> Space.make ~deltas:[||] ()));
  check_bool "non-positive value rejected" true
    (raises_invalid (fun () -> Space.make ~bounds:[| 0.2; 0.0 |] ()));
  check_bool "nan rejected" true
    (raises_invalid (fun () -> Space.make ~epochs:[| Float.nan |] ()))

let test_point_decode () =
  let s = Space.default in
  let n = Space.cardinality s in
  (* Ids are a bijection onto the grid. *)
  let seen = Hashtbl.create n in
  for id = 0 to n - 1 do
    let p = Space.point s id in
    check_int "id round-trips" id p.Space.id;
    Hashtbl.replace seen
      (p.Space.delta, p.Space.weight, p.Space.bound, p.Space.epoch,
       p.Space.arrangement)
      ()
  done;
  check_int "enumeration is a bijection" n (Hashtbl.length seen);
  (* Delta varies fastest. *)
  check_bool "axis order" true
    ((Space.point s 0).Space.delta <> (Space.point s 1).Space.delta);
  check_bool "id out of range rejected" true
    (raises_invalid (fun () -> Space.point s n))

let test_point_fields_roundtrip () =
  let s = Space.default in
  for id = 0 to Space.cardinality s - 1 do
    let p = Space.point s id in
    match Space.point_of_fields (Obs.Json.Obj (Space.point_fields p)) with
    | Some q -> check_bool "fields round-trip" true (p = q)
    | None -> Alcotest.fail "point_of_fields rejected its own encoding"
  done

let test_sample () =
  let s = Space.default in
  let n = Space.cardinality s in
  let full = Space.sample s ~seed:1 ~count:0 in
  check_int "count<=0 selects all" n (List.length full);
  check_bool "full sample is 0..n-1" true (full = List.init n Fun.id);
  check_bool "count>=n selects all" true
    (Space.sample s ~seed:1 ~count:(n + 5) = full);
  let a = Space.sample s ~seed:7 ~count:40 in
  check_bool "deterministic" true (a = Space.sample s ~seed:7 ~count:40);
  check_bool "seed matters" true (a <> Space.sample s ~seed:8 ~count:40);
  check_int "requested count" 40 (List.length a);
  check_bool "ascending" true (List.sort compare a = a);
  check_int "distinct" 40 (List.length (List.sort_uniq compare a));
  check_bool "within grid" true (List.for_all (fun id -> id >= 0 && id < n) a);
  Alcotest.(check (list int))
    "pinned draw" [ 2; 14; 29; 42; 70; 115; 120; 147; 206; 207 ]
    (Space.sample s ~seed:7 ~count:10)

let test_space_fingerprint () =
  let fp = Space.fingerprint Space.default in
  check_string "stable" fp (Space.fingerprint Space.default);
  check_bool "axis change changes it" true
    (fp <> Space.fingerprint (Space.make ~deltas:[| 0.4; 1.0 |] ()));
  check_bool "smoke differs from default" true
    (fp <> Space.fingerprint Space.smoke)

(* ------------------------------------------------------------------ *)
(* Frontier                                                            *)
(* ------------------------------------------------------------------ *)

(* Entries over a coarse objective lattice so random draws collide and
   dominate each other often. *)
let entry_gen =
  QCheck.Gen.(
    let* id = int_bound (Space.cardinality Space.default - 1) in
    let* mu = map float_of_int (int_range 1 4) in
    let* exd = map float_of_int (int_range 1 4) in
    let* macs = int_range 1 4 in
    return
      { Frontier.point = Space.point Space.default id; mu; exd; macs })

let arb_entries =
  QCheck.make
    ~print:(fun es ->
      String.concat ";"
        (List.map
           (fun (e : Frontier.entry) ->
             Printf.sprintf "(#%d %g %g %d)" e.Frontier.point.Space.id
               e.Frontier.mu e.Frontier.exd e.Frontier.macs)
           es))
    QCheck.Gen.(list_size (int_range 0 30) entry_gen)

let frontier_of entries =
  let f = Frontier.create () in
  List.iter (fun e -> ignore (Frontier.insert f e)) entries;
  f

(* [Frontier.insert] refuses exactly the entries some member dominates. *)
let prop_members_mutually_non_dominated =
  QCheck.Test.make ~count:300 ~name:"no member dominates another"
    arb_entries (fun entries ->
      let ms = Frontier.members (frontier_of entries) in
      List.for_all
        (fun a -> Frontier.insert (frontier_of (List.filter (( != ) a) ms)) a)
        ms)

let prop_members_cover_input =
  QCheck.Test.make ~count:300
    ~name:"every input is dominated by (or is) a member" arb_entries
    (fun entries ->
      let ms = Frontier.members (frontier_of entries) in
      List.for_all
        (fun e -> List.mem e ms || not (Frontier.insert (frontier_of ms) e))
        entries)

let prop_order_independent =
  QCheck.Test.make ~count:300 ~name:"insertion order is irrelevant"
    arb_entries (fun entries ->
      let sorted f =
        List.sort compare (Frontier.members f)
      in
      sorted (frontier_of entries) = sorted (frontier_of (List.rev entries)))

let test_frontier_insert () =
  let e ~mu ~exd ~macs id =
    { Frontier.point = Space.point Space.default id; mu; exd; macs }
  in
  let f = Frontier.create () in
  check_bool "first entry accepted" true
    (Frontier.insert f (e 0 ~mu:2.0 ~exd:2.0 ~macs:2));
  check_bool "dominated entry rejected" false
    (Frontier.insert f (e 1 ~mu:3.0 ~exd:2.0 ~macs:2));
  check_int "rejected entry not kept" 1 (Frontier.size f);
  check_bool "incomparable entry accepted" true
    (Frontier.insert f (e 2 ~mu:1.0 ~exd:3.0 ~macs:2));
  check_int "both kept" 2 (Frontier.size f);
  check_bool "dominating entry evicts" true
    (Frontier.insert f (e 3 ~mu:1.0 ~exd:1.0 ~macs:1));
  check_int "evicts every dominated member" 1 (Frontier.size f);
  check_bool "tie (equal objectives) kept" true
    (Frontier.insert f (e 4 ~mu:1.0 ~exd:1.0 ~macs:1));
  check_int "members sorted by id" 2 (Frontier.size f);
  check_bool "sorted by id" true
    (List.map (fun (m : Frontier.entry) -> m.Frontier.point.Space.id)
       (Frontier.members f)
    = [ 3; 4 ])

let test_entry_json_roundtrip () =
  let e =
    {
      Frontier.point = Space.point Space.default 17;
      mu = 0.93;
      exd = 123.456;
      macs = 1044;
    }
  in
  match Frontier.entry_of_json (Frontier.entry_json e) with
  | Some e' -> check_bool "entry round-trips" true (e = e')
  | None -> Alcotest.fail "entry_of_json rejected its own encoding"

(* ------------------------------------------------------------------ *)
(* Checkpoint                                                          *)
(* ------------------------------------------------------------------ *)

let record id =
  {
    Checkpoint.entry =
      {
        Frontier.point = Space.point Space.default id;
        mu = 1.0 +. (0.1 *. float_of_int id);
        exd = 10.0 +. float_of_int id;
        macs = 100 + id;
      };
    synth_wall_s = 0.5;
  }

let write_checkpoint ~fingerprint file records =
  let oc = Checkpoint.append_channel ~fingerprint ~existing:false file in
  List.iter (Checkpoint.append oc) records;
  close_out oc

let test_checkpoint_roundtrip () =
  with_scratch_dir @@ fun dir ->
  let file = Checkpoint.path ~dir ~fingerprint:"fp" ~shard:1 ~shards:2 in
  check_bool "missing file loads empty" true
    (Checkpoint.load ~fingerprint:"fp" file = []);
  let records = List.map record [ 3; 1; 7 ] in
  write_checkpoint ~fingerprint:"fp" file records;
  check_bool "records round-trip in order" true
    (Checkpoint.load ~fingerprint:"fp" file = records);
  (* Appending to an existing file keeps prior records. *)
  let oc = Checkpoint.append_channel ~fingerprint:"fp" ~existing:true file in
  Checkpoint.append oc (record 9);
  close_out oc;
  check_int "append extends" 4
    (List.length (Checkpoint.load ~fingerprint:"fp" file))

let test_checkpoint_partial_tail () =
  with_scratch_dir @@ fun dir ->
  let file = Checkpoint.path ~dir ~fingerprint:"fp" ~shard:1 ~shards:1 in
  write_checkpoint ~fingerprint:"fp" file (List.map record [ 0; 1 ]);
  (* A kill mid-append leaves a partial final line: tolerated. *)
  let oc = open_out_gen [ Open_append ] 0o644 file in
  output_string oc "{\"type\":\"point\",\"id\":2,\"del";
  close_out oc;
  check_int "partial tail dropped" 2
    (List.length (Checkpoint.load ~fingerprint:"fp" file))

let test_checkpoint_corruption () =
  with_scratch_dir @@ fun dir ->
  let file = Checkpoint.path ~dir ~fingerprint:"fp" ~shard:1 ~shards:1 in
  write_checkpoint ~fingerprint:"fp" file [ record 0 ];
  let oc = open_out_gen [ Open_append ] 0o644 file in
  output_string oc "garbage\n";
  close_out oc;
  let oc = open_out_gen [ Open_append ] 0o644 file in
  output_string oc (Obs.Json.to_string Obs.Json.Null);
  output_char oc '\n';
  close_out oc;
  check_bool "garbage mid-file raises" true
    (match Checkpoint.load ~fingerprint:"fp" file with
    | _ -> false
    | exception Checkpoint.Mismatch _ -> true)

let test_checkpoint_fingerprint_mismatch () =
  with_scratch_dir @@ fun dir ->
  let file = Checkpoint.path ~dir ~fingerprint:"old" ~shard:1 ~shards:1 in
  write_checkpoint ~fingerprint:"old" file [ record 0 ];
  check_bool "foreign fingerprint raises" true
    (match Checkpoint.load ~fingerprint:"new" file with
    | _ -> false
    | exception Checkpoint.Mismatch _ -> true);
  let foreign = Filename.concat dir "foreign.jsonl" in
  let oc = open_out foreign in
  output_string oc "not a checkpoint\n";
  close_out oc;
  check_bool "non-checkpoint file raises" true
    (match Checkpoint.load ~fingerprint:"new" foreign with
    | _ -> false
    | exception Checkpoint.Mismatch _ -> true)

(* ------------------------------------------------------------------ *)
(* Plan, shards, merge (no synthesis needed)                           *)
(* ------------------------------------------------------------------ *)

let test_plan_validation () =
  check_bool "unknown probe app rejected" true
    (raises_invalid (fun () ->
         Run.plan ~probe:{ app = "no-such-app"; ginsts = 1.0; max_time = 1.0 }
           ()));
  check_bool "non-positive ginsts rejected" true
    (raises_invalid (fun () ->
         Run.plan ~probe:{ Run.default_probe with ginsts = 0.0 } ()));
  let p = Run.plan ~points:10 () in
  check_int "sample_size honours points" 10 (Run.sample_size p);
  check_int "points<=0 sweeps the grid" 243
    (Run.sample_size (Run.plan ~points:0 ()))

let test_plan_fingerprint () =
  let base = Run.plan () in
  let fp = Run.fingerprint base in
  check_string "stable" fp (Run.fingerprint (Run.plan ()));
  check_bool "seed changes it" true (fp <> Run.fingerprint (Run.plan ~seed:1 ()));
  check_bool "points changes it" true
    (fp <> Run.fingerprint (Run.plan ~points:10 ()));
  check_bool "space changes it" true
    (fp <> Run.fingerprint (Run.plan ~space:Space.smoke ()));
  check_bool "probe changes it" true
    (fp <> Run.fingerprint (Run.plan ~probe:Run.smoke_probe ()))

let test_shard_ids_partition () =
  let p = Run.plan ~points:50 ~seed:3 () in
  let all = Space.sample p.Run.space ~seed:3 ~count:50 in
  let shards = 3 in
  let parts =
    List.init shards (fun i ->
        Run.shard_ids p { Run.index = i + 1; shards })
  in
  check_bool "shards are disjoint and cover the sample" true
    (List.sort compare (List.concat parts) = all);
  (* Round-robin striping keeps shard loads within one point. *)
  let sizes = List.map List.length parts in
  check_bool "balanced" true
    (List.fold_left max 0 sizes - List.fold_left min max_int sizes <= 1);
  check_bool "invalid shard rejected" true
    (raises_invalid (fun () -> Run.shard_ids p { Run.index = 0; shards = 2 }))

let test_merge_pure () =
  (* Merge is pure frontier math over documents; exercise it on
     synthetic entries without any synthesis. *)
  let p = Run.plan ~points:0 () in
  let entries =
    List.map
      (fun (id, mu, exd, macs) ->
        { Frontier.point = Space.point Space.default id; mu; exd; macs })
      [
        (0, 1.0, 5.0, 3); (1, 2.0, 4.0, 2); (2, 3.0, 3.0, 1);
        (3, 2.5, 4.5, 2); (4, 1.5, 6.0, 9);
      ]
  in
  let doc es =
    Obs.Json.Obj [ ("frontier", Run.frontier_block p (frontier_of es)) ]
  in
  let whole = Run.frontier_block p (frontier_of entries) in
  let left, right =
    List.partition
      (fun (e : Frontier.entry) -> e.Frontier.point.Space.id mod 2 = 0)
      entries
  in
  let merged = Run.merge [ doc left; doc right ] in
  check_string "merge of a split equals the whole"
    (Obs.Json.to_string whole)
    (Obs.Json.to_string merged);
  check_bool "mismatched plans rejected" true
    (raises_invalid (fun () ->
         Run.merge
           [
             doc entries;
             Obs.Json.Obj
               [
                 ( "frontier",
                   Run.frontier_block (Run.plan ~seed:1 ()) (frontier_of []) );
               ];
           ]));
  check_bool "empty list rejected" true
    (raises_invalid (fun () -> Run.merge []));
  check_bool "missing frontier rejected" true
    (raises_invalid (fun () -> Run.merge [ Obs.Json.Obj [] ]))

(* ------------------------------------------------------------------ *)
(* End-to-end determinism (default designs only, so one synthesis      *)
(* serves every test below via the shared .yukta_cache/)               *)
(* ------------------------------------------------------------------ *)

(* Axis values chosen to equal the Hw_layer/Sw_layer spec defaults:
   every point reuses the default designs, so the whole section costs
   one hardware + one software synthesis cold and nothing warm. *)
let e2e_space =
  Space.make ~deltas:[| 0.4 |] ~weights:[| 1.0 |] ~bounds:[| 0.2 |]
    ~epochs:[| 0.5 |]
    ~arrangements:[| Space.Sw_over_hw; Space.Hw_over_sw; Space.Hw_only |] ()

let e2e_plan =
  Run.plan ~space:e2e_space
    ~probe:{ app = "blackscholes"; ginsts = 2.0; max_time = 20.0 } ()

let block outcome =
  Obs.Json.to_string
    (Run.frontier_block outcome.Run.plan outcome.Run.frontier)

let test_e2e_serial_parallel_byte_identical () =
  with_scratch_dir @@ fun dir ->
  let serial = Run.run ~dir:(Filename.concat dir "serial") e2e_plan in
  check_int "all points evaluated" 3 serial.Run.evaluated;
  check_bool "frontier non-empty" true (Frontier.size serial.Run.frontier > 0);
  let pool = Parallel.Pool.create ~jobs:4 in
  let parallel =
    Run.run ~pool ~dir:(Filename.concat dir "parallel") e2e_plan
  in
  Parallel.Pool.shutdown pool;
  check_string "-j1 and -j4 frontier blocks byte-identical" (block serial)
    (block parallel)

let test_e2e_resume_after_kill () =
  with_scratch_dir @@ fun dir ->
  let first = Run.run ~dir e2e_plan in
  let file = first.Run.checkpoint in
  (* Simulate a kill: drop the last complete record and leave a partial
     line behind. *)
  let ic = open_in_bin file in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  let kept = List.rev (List.tl !lines) in
  let oc = open_out_bin file in
  List.iter (fun l -> output_string oc (l ^ "\n")) kept;
  output_string oc "{\"type\":\"point\",\"id\"";
  close_out oc;
  let resumed = Run.run ~dir e2e_plan in
  check_int "completed points not recomputed" 2 resumed.Run.resumed;
  check_int "only the lost point re-evaluated" 1 resumed.Run.evaluated;
  check_string "frontier unchanged by the kill" (block first) (block resumed);
  (* A third run resumes everything. *)
  let third = Run.run ~dir e2e_plan in
  check_int "nothing left to evaluate" 0 third.Run.evaluated;
  check_int "all points resumed" 3 third.Run.resumed

let test_e2e_sharded_merge_equals_single_shot () =
  with_scratch_dir @@ fun dir ->
  let whole = Run.run ~dir:(Filename.concat dir "whole") e2e_plan in
  let artifact shard =
    Run.artifact ~jobs:1 ~wall_s:0.0
      (Run.run ~dir:(Filename.concat dir "sharded") ~shard e2e_plan)
  in
  let docs =
    [ artifact { Run.index = 1; shards = 2 };
      artifact { Run.index = 2; shards = 2 } ]
  in
  check_string "sharded-then-merged equals single-shot" (block whole)
    (Obs.Json.to_string (Run.merge docs))

let test_e2e_checkpoint_fingerprint_guard () =
  with_scratch_dir @@ fun dir ->
  ignore (Run.run ~dir e2e_plan);
  (* Same checkpoint path shape, different probe: fingerprint differs,
     so the files never collide; forcing a collision raises. *)
  let other =
    Run.plan ~space:e2e_space
      ~probe:{ app = "blackscholes"; ginsts = 3.0; max_time = 20.0 } ()
  in
  check_bool "plans get distinct fingerprints" true
    (Run.fingerprint e2e_plan <> Run.fingerprint other);
  let from = Checkpoint.path ~dir ~fingerprint:(Run.fingerprint e2e_plan)
      ~shard:1 ~shards:1 in
  let to_ = Checkpoint.path ~dir ~fingerprint:(Run.fingerprint other)
      ~shard:1 ~shards:1 in
  Sys.rename from to_;
  check_bool "resume refuses a foreign checkpoint" true
    (match Run.run ~dir other with
    | _ -> false
    | exception Checkpoint.Mismatch _ -> true)

let () =
  Alcotest.run "sweep"
    [
      ( "space",
        [
          Alcotest.test_case "cardinality" `Quick test_space_cardinality;
          Alcotest.test_case "validation" `Quick test_space_validation;
          Alcotest.test_case "point decode" `Quick test_point_decode;
          Alcotest.test_case "point fields round-trip" `Quick
            test_point_fields_roundtrip;
          Alcotest.test_case "sampling" `Quick test_sample;
          Alcotest.test_case "fingerprint" `Quick test_space_fingerprint;
        ] );
      ( "frontier",
        [
          Alcotest.test_case "insert/evict/ties" `Quick test_frontier_insert;
          Alcotest.test_case "entry json round-trip" `Quick
            test_entry_json_roundtrip;
          QCheck_alcotest.to_alcotest prop_members_mutually_non_dominated;
          QCheck_alcotest.to_alcotest prop_members_cover_input;
          QCheck_alcotest.to_alcotest prop_order_independent;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "round-trip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "partial tail tolerated" `Quick
            test_checkpoint_partial_tail;
          Alcotest.test_case "mid-file corruption raises" `Quick
            test_checkpoint_corruption;
          Alcotest.test_case "fingerprint mismatch raises" `Quick
            test_checkpoint_fingerprint_mismatch;
        ] );
      ( "plan",
        [
          Alcotest.test_case "validation" `Quick test_plan_validation;
          Alcotest.test_case "fingerprint" `Quick test_plan_fingerprint;
          Alcotest.test_case "shard striping partitions" `Quick
            test_shard_ids_partition;
          Alcotest.test_case "merge is exact" `Quick test_merge_pure;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "-j1/-j4 byte-identity" `Slow
            test_e2e_serial_parallel_byte_identical;
          Alcotest.test_case "kill/resume" `Slow test_e2e_resume_after_kill;
          Alcotest.test_case "sharded merge equals single-shot" `Slow
            test_e2e_sharded_merge_equals_single_shot;
          Alcotest.test_case "foreign checkpoint refused" `Slow
            test_e2e_checkpoint_fingerprint_guard;
        ] );
    ]
