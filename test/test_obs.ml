(* Tests for the observability stack (lib/obs): the JSON codec, metric
   math, collector semantics, and the runtime instrumentation contract —
   collection enabled emits well-formed per-epoch events, disabled emits
   nothing and allocates nothing in the guard. *)

open Yukta

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Json: encoder / parser                                              *)
(* ------------------------------------------------------------------ *)

let test_json_basic () =
  let open Obs.Json in
  Alcotest.(check string) "null" "null" (to_string Null);
  Alcotest.(check string) "bool" "true" (to_string (Bool true));
  Alcotest.(check string) "int" "42" (to_string (Int 42));
  Alcotest.(check string)
    "obj" {|{"a":1,"b":[2.5,"x"]}|}
    (to_string (Obj [ ("a", Int 1); ("b", List [ Float 2.5; String "x" ]) ]));
  (* Floats always carry a decimal point or exponent so they parse back
     as Float, not Int. *)
  (match of_string (to_string (Float 3.0)) with
  | Float f -> check_float "float-ness survives" 3.0 f
  | j -> Alcotest.failf "expected Float, got %s" (to_string j));
  (* Non-finite floats have no JSON representation. *)
  Alcotest.(check string) "nan" "null" (to_string (Float Float.nan));
  Alcotest.(check string) "inf" "null" (to_string (Float Float.infinity))

let test_json_escaping () =
  let open Obs.Json in
  let s = "quote\" backslash\\ newline\n tab\t nul\x00 unit\x1f" in
  (match of_string (to_string (String s)) with
  | String s' -> Alcotest.(check string) "escape round-trip" s s'
  | _ -> Alcotest.fail "expected String");
  (* \uXXXX escapes decode to UTF-8, including surrogate pairs. *)
  (match of_string {|"é😀"|} with
  | String s -> Alcotest.(check string) "unicode escapes" "\xc3\xa9\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "expected String");
  match of_string "1 2" with
  | exception Parse_error _ -> ()
  | j -> Alcotest.failf "trailing garbage accepted: %s" (to_string j)

let test_json_accessors () =
  let open Obs.Json in
  let j = of_string {|{"a":{"b":3},"c":[1,2],"s":"x","f":1.5}|} in
  Alcotest.(check (option int))
    "member/int"
    (Some 3)
    (Option.bind (member "a" j) (member "b") |> fun o ->
     Option.bind o to_int_opt);
  Alcotest.(check bool)
    "int widens to float" true
    (Option.bind (member "a" j) (member "b")
     |> fun o -> Option.bind o to_float_opt = Some 3.0);
  Alcotest.(check (option string))
    "member/string" (Some "x")
    (Option.bind (member "s" j) to_string_opt);
  Alcotest.(check bool)
    "list" true
    (match Option.bind (member "c" j) to_list_opt with
    | Some [ Int 1; Int 2 ] -> true
    | _ -> false);
  Alcotest.(check bool) "missing member" true (member "zz" j = None)

(* Property: any string round-trips through encode/parse, whatever
   control characters or high bytes it contains. *)
let json_string_roundtrip =
  QCheck.Test.make ~name:"json string encode/parse round-trip" ~count:500
    QCheck.(string_gen (Gen.char_range '\x00' '\xff'))
    (fun s ->
      match Obs.Json.of_string (Obs.Json.to_string (Obs.Json.String s)) with
      | Obs.Json.String s' -> String.equal s s'
      | _ -> false)

(* Property: int round-trip, including min_int/max_int neighborhoods. *)
let json_int_roundtrip =
  QCheck.Test.make ~name:"json int round-trip" ~count:500
    QCheck.(
      oneof
        [ int; int_range (max_int - 100) max_int; int_range min_int (min_int + 100) ])
    (fun i ->
      match Obs.Json.of_string (Obs.Json.to_string (Obs.Json.Int i)) with
      | Obs.Json.Int i' -> i = i'
      | _ -> false)

(* Property: finite floats survive encode/parse exactly (shortest
   round-trip representation). *)
let json_float_roundtrip =
  QCheck.Test.make ~name:"json float round-trip" ~count:500
    QCheck.(map (fun f -> if Float.is_finite f then f else 0.0) float)
    (fun f ->
      match Obs.Json.of_string (Obs.Json.to_string (Obs.Json.Float f)) with
      | Obs.Json.Float f' -> Float.equal f f'
      | Obs.Json.Int i -> Float.equal f (Float.of_int i)
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_counters () =
  Obs.Metrics.reset_all ();
  let c = Obs.Metrics.counter "test.counter" in
  Alcotest.(check int) "starts at zero" 0 (Obs.Metrics.count c);
  Obs.Metrics.incr c;
  Obs.Metrics.incr ~by:41 c;
  Alcotest.(check int) "incr" 42 (Obs.Metrics.count c);
  (* Same name resolves to the same cell. *)
  Alcotest.(check int) "shared by name" 42
    (Obs.Metrics.count (Obs.Metrics.counter "test.counter"));
  Obs.Metrics.reset_all ();
  Alcotest.(check int) "reset zeroes, instance stays valid" 0
    (Obs.Metrics.count c);
  Obs.Metrics.incr c;
  Alcotest.(check int) "usable after reset" 1 (Obs.Metrics.count c)

(* A histogram's summary as [Obs.Metrics.dump] reports it. *)
let summary_field name field =
  List.find_map
    (fun j ->
      if Obs.Json.member "name" j = Some (Obs.Json.String name) then
        Option.bind (Obs.Json.member field j) Obs.Json.to_float_opt
      else None)
    (Obs.Metrics.dump ())
  |> Option.value ~default:Float.nan

let test_histogram_percentiles () =
  Obs.Metrics.reset_all ();
  (* Log-spaced buckets, four per decade: percentile interpolation is
     accurate to within one bucket, a factor of 10^(1/4). *)
  let h = Obs.Metrics.histogram "test.hist" in
  Alcotest.(check bool) "empty percentile is nan" true
    (Float.is_nan (Obs.Metrics.percentile h 0.5));
  for v = 1 to 100 do
    Obs.Metrics.observe h (Float.of_int v)
  done;
  let s = summary_field "test.hist" in
  check_float "count" 100.0 (s "count");
  check_float "total" 5050.0 (s "total");
  check_float "mean" 50.5 (s "mean");
  check_float "min" 1.0 (s "min");
  check_float "max" 100.0 (s "max");
  let near q expect =
    let p = Obs.Metrics.percentile h q and bucket = 10.0 ** 0.25 in
    if p < expect /. bucket || p > expect *. bucket then
      Alcotest.failf "p%.0f = %.3f, expected ~%.1f" (100.0 *. q) p expect
  in
  near 0.5 50.0;
  near 0.9 90.0;
  near 0.99 99.0;
  check_float "p0 clamps to min" 1.0 (Obs.Metrics.percentile h 0.0);
  check_float "p100 clamps to max" 100.0 (Obs.Metrics.percentile h 1.0)

let test_histogram_single_and_overflow () =
  Obs.Metrics.reset_all ();
  let h = Obs.Metrics.histogram "test.hist2" in
  Obs.Metrics.observe h 1.5;
  check_float "single value p50" 1.5 (Obs.Metrics.percentile h 0.5);
  check_float "single value p99" 1.5 (Obs.Metrics.percentile h 0.99);
  (* A value above the last bound (1000 s) lands in the overflow bucket;
     the summary still reports the true max. *)
  Obs.Metrics.observe h 5000.0;
  check_float "overflow max" 5000.0 (summary_field "test.hist2" "max");
  check_float "overflow p100" 5000.0 (Obs.Metrics.percentile h 1.0)

let test_metrics_dump () =
  Obs.Metrics.reset_all ();
  let c = Obs.Metrics.counter "dump.counter" in
  let _empty = Obs.Metrics.counter "dump.zero" in
  Obs.Metrics.incr ~by:7 c;
  let records = Obs.Metrics.dump () in
  let names =
    List.filter_map
      (fun j -> Option.bind (Obs.Json.member "name" j) Obs.Json.to_string_opt)
      records
  in
  Alcotest.(check bool) "non-zero counter dumped" true
    (List.mem "dump.counter" names);
  Alcotest.(check bool) "zero counter skipped" false
    (List.mem "dump.zero" names)

(* ------------------------------------------------------------------ *)
(* Collector                                                           *)
(* ------------------------------------------------------------------ *)

let drain_json () = List.map Obs.Json.of_string (Obs.Collector.drain ())

let field name j = Obs.Json.member name j

let sfield name j = Option.bind (field name j) Obs.Json.to_string_opt

let test_disabled_is_silent () =
  Obs.Collector.disable ();
  Obs.Collector.buffer_sink ();
  Obs.Collector.event ~name:"x" ~sim:1.0 (fun () -> []);
  Obs.Collector.record_span ~name:"y" ~dur_s:0.1 [];
  Alcotest.(check int) "nothing emitted" 0 (List.length (Obs.Collector.drain ()))

let test_span_nesting () =
  Obs.Collector.buffer_sink ();
  Obs.Collector.enable ();
  let r =
    Obs.Collector.span ~name:"outer" (fun () ->
        Obs.Collector.span ~name:"inner" (fun () -> 7) + 1)
  in
  Obs.Collector.disable ();
  Alcotest.(check int) "span returns f's value" 8 r;
  match drain_json () with
  | [ inner; outer ] ->
    (* Inner completes (and is emitted) first. *)
    Alcotest.(check (option string)) "inner name" (Some "inner")
      (sfield "name" inner);
    Alcotest.(check (option string)) "outer name" (Some "outer")
      (sfield "name" outer);
    Alcotest.(check (option int)) "inner depth" (Some 1)
      (Option.bind (field "depth" inner) Obs.Json.to_int_opt);
    Alcotest.(check (option int)) "outer depth" (Some 0)
      (Option.bind (field "depth" outer) Obs.Json.to_int_opt);
    let dur j =
      match Option.bind (field "dur_s" j) Obs.Json.to_float_opt with
      | Some d -> d
      | None -> Alcotest.fail "span without dur_s"
    in
    Alcotest.(check bool) "durations non-negative" true
      (dur inner >= 0.0 && dur outer >= 0.0);
    Alcotest.(check bool) "outer covers inner" true (dur outer >= dur inner)
  | lines -> Alcotest.failf "expected 2 spans, got %d lines" (List.length lines)

let test_span_exception () =
  Obs.Collector.buffer_sink ();
  Obs.Collector.enable ();
  (try
     Obs.Collector.span ~name:"boom" (fun () -> failwith "expected") |> ignore
   with Failure _ -> ());
  Obs.Collector.disable ();
  match drain_json () with
  | [ j ] ->
    Alcotest.(check bool) "raised field present" true
      (Option.bind (field "fields" j) (Obs.Json.member "raised") <> None)
  | _ -> Alcotest.fail "expected one span record"

let test_with_collection () =
  let v =
    Obs.Collector.with_collection (fun () ->
        Obs.Collector.event ~name:"probe" ~sim:2.0 (fun () ->
            [ ("k", Obs.Json.Int 1) ]);
        Obs.Metrics.incr (Obs.Metrics.counter "probe.counter");
        "done")
  in
  Alcotest.(check string) "returns f's value" "done" v;
  Alcotest.(check bool) "disabled after" false (Obs.Collector.enabled ());
  let lines = drain_json () in
  Alcotest.(check bool) "event + metric dump captured" true
    (List.length lines >= 2);
  let kinds = List.filter_map (sfield "type") lines in
  Alcotest.(check bool) "has event" true (List.mem "event" kinds);
  Alcotest.(check bool) "has counter dump" true (List.mem "counter" kinds)

(* ------------------------------------------------------------------ *)
(* Stats: the mergeable core                                           *)
(* ------------------------------------------------------------------ *)

let welford_of_list xs =
  let w = Obs.Stats.Welford.create () in
  List.iter (Obs.Stats.Welford.add w) xs;
  w

(* A field of an accumulator's [to_json] summary: count, mean, std, min
   or max. *)
let welford_field w key =
  Option.bind
    (Obs.Json.member key (Obs.Stats.Welford.to_json w))
    Obs.Json.to_float_opt
  |> Option.get

(* A histogram's per-bucket counts, the overflow slot last, as its
   [to_json] reports them. *)
let hist_counts h =
  Option.bind
    (Obs.Json.member "counts" (Obs.Stats.Hist.to_json h))
    Obs.Json.to_list_opt
  |> Option.get
  |> List.map (fun c -> Option.get (Obs.Json.to_int_opt c))
  |> Array.of_list

(* Property: merging the Welford summaries of a split stream agrees
   with the single-stream summary. Counts and extrema are exact; mean
   and variance (the square of the summary's std) agree up to
   floating-point reassociation, so the tolerance scales with the
   magnitude of the data. An empty summary reads all zeros. *)
let welford_merge_matches_single =
  QCheck.Test.make ~name:"welford merge of split streams = single stream"
    ~count:300
    QCheck.(pair (list_of_size Gen.(0 -- 200) (float_range (-1e6) 1e6))
              (list_of_size Gen.(0 -- 200) (float_range (-1e6) 1e6)))
    (fun (xs, ys) ->
      let whole = welford_of_list (xs @ ys) in
      let merged = welford_of_list xs in
      Obs.Stats.Welford.merge_into ~into:merged (welford_of_list ys);
      let close a b scale = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 scale in
      let exact key = welford_field merged key = welford_field whole key in
      let variance w =
        let s = welford_field w "std" in
        s *. s
      in
      let mean = welford_field whole "mean" in
      exact "count" && exact "min" && exact "max"
      && close (welford_field merged "mean") mean
           (Float.max (Float.abs mean) 1.0)
      && close (variance merged) (variance whole)
           (Float.max (variance whole) 1.0))

(* Property: histogram merges are exact — integer counts add, so the
   merged histogram is bit-for-bit the single-stream histogram. *)
let hist_merge_exact =
  let bounds = [| -0.5; 0.0; 0.25; 0.5; 1.0 |] in
  QCheck.Test.make ~name:"hist merge of split streams is exact" ~count:300
    QCheck.(pair (list_of_size Gen.(0 -- 200) (float_range (-2.0) 2.0))
              (list_of_size Gen.(0 -- 200) (float_range (-2.0) 2.0)))
    (fun (xs, ys) ->
      let hist_of l =
        let h = Obs.Stats.Hist.create ~buckets:bounds in
        List.iter (Obs.Stats.Hist.observe h) l;
        h
      in
      let whole = hist_of (xs @ ys) in
      let merged = hist_of xs in
      Obs.Stats.Hist.merge_into ~into:merged (hist_of ys);
      Obs.Stats.Hist.to_json merged = Obs.Stats.Hist.to_json whole)

let test_welford_basics () =
  let w = welford_of_list [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  check_float "count" 8.0 (welford_field w "count");
  check_float "mean" 5.0 (Obs.Stats.Welford.mean w);
  (* Population variance 4 (divides by n, not n - 1). *)
  check_float "std" 2.0 (welford_field w "std");
  check_float "min" 2.0 (welford_field w "min");
  check_float "max" 9.0 (Obs.Stats.Welford.max_v w);
  (* Merging an empty accumulator either way is the identity. *)
  let empty = Obs.Stats.Welford.create () in
  Obs.Stats.Welford.merge_into ~into:w empty;
  check_float "merge empty src is identity" 5.0 (Obs.Stats.Welford.mean w);
  let into = Obs.Stats.Welford.create () in
  Obs.Stats.Welford.merge_into ~into w;
  check_float "merge into empty adopts" 5.0 (Obs.Stats.Welford.mean into);
  (* The empty accumulator serializes as zeros, not nan. *)
  (match Obs.Stats.Welford.to_json (Obs.Stats.Welford.create ()) with
  | j ->
    Alcotest.(check (option int)) "empty count json" (Some 0)
      (Option.bind (Obs.Json.member "count" j) Obs.Json.to_int_opt);
    Alcotest.(check bool) "empty mean json is 0" true
      (Option.bind (Obs.Json.member "mean" j) Obs.Json.to_float_opt
       = Some 0.0))

let test_hist_basics () =
  let h = Obs.Stats.Hist.create ~buckets:[| 1.0; 2.0 |] in
  List.iter (Obs.Stats.Hist.observe h) [ 0.5; 1.0; 1.5; 2.0; 99.0 ];
  (* Bounds are inclusive upper bounds; 99 lands in the overflow slot. *)
  Alcotest.(check (array int)) "slotting" [| 2; 2; 1 |] (hist_counts h);
  Alcotest.(check int) "count" 5 (Obs.Stats.Hist.count h);
  let raises f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  Alcotest.(check bool) "empty bounds rejected" true
    (raises (fun () -> Obs.Stats.Hist.create ~buckets:[||]));
  Alcotest.(check bool) "non-increasing bounds rejected" true
    (raises (fun () -> Obs.Stats.Hist.create ~buckets:[| 1.0; 1.0 |]));
  Alcotest.(check bool) "layout mismatch rejected" true
    (raises (fun () ->
         Obs.Stats.Hist.merge_into ~into:h
           (Obs.Stats.Hist.create ~buckets:[| 1.0; 3.0 |])))

let test_metrics_dump_sorted () =
  Obs.Metrics.reset_all ();
  (* Register deliberately out of order; dump must come back sorted. *)
  List.iter
    (fun n -> Obs.Metrics.incr (Obs.Metrics.counter n))
    [ "zz.last"; "aa.first"; "mm.middle" ];
  Obs.Metrics.incr (Obs.Metrics.counter "bb.second");
  let names =
    List.filter_map
      (fun j -> Option.bind (Obs.Json.member "name" j) Obs.Json.to_string_opt)
      (Obs.Metrics.dump ())
  in
  Alcotest.(check (list string)) "dump sorted by name"
    [ "aa.first"; "bb.second"; "mm.middle"; "zz.last" ]
    names

(* ------------------------------------------------------------------ *)
(* Recorder                                                            *)
(* ------------------------------------------------------------------ *)

let note_n n =
  for i = 1 to n do
    Obs.Recorder.note_event ~name:"test.note" ~sim:0.0 (Obs.Json.Int i)
  done

let test_recorder_ring () =
  Obs.Recorder.clear ();
  Obs.Recorder.enable ~capacity:4 ();
  note_n 10;
  (* Only the last [capacity] events survive, oldest first. *)
  Alcotest.(check bool) "window keeps the newest, oldest first" true
    (Obs.Recorder.window ()
    = [ Obs.Json.Int 7; Obs.Json.Int 8; Obs.Json.Int 9; Obs.Json.Int 10 ]);
  Obs.Recorder.disable ();
  Obs.Recorder.clear ();
  (* Disabled notes are dropped. *)
  note_n 3;
  Alcotest.(check bool) "disabled note is a no-op" true
    (Obs.Recorder.window () = []);
  let raises f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  Alcotest.(check bool) "capacity < 1 rejected" true
    (raises (fun () -> Obs.Recorder.enable ~capacity:0 ()))

let test_recorder_dump () =
  Obs.Recorder.clear ();
  Obs.Recorder.enable ~capacity:8 ();
  note_n 3;
  Obs.Recorder.dump ~reason:"test.trigger" ~sim:1.25;
  Alcotest.(check int) "one dump taken" 1 (Obs.Recorder.dump_count ());
  (match Obs.Recorder.dumps () with
  | [ d ] ->
    Alcotest.(check (option string)) "record name" (Some "recorder.dump")
      (Option.bind (Obs.Json.member "name" d) Obs.Json.to_string_opt);
    let fields = Obs.Json.member "fields" d in
    Alcotest.(check (option string)) "reason" (Some "test.trigger")
      (Option.bind (Option.bind fields (Obs.Json.member "reason"))
         Obs.Json.to_string_opt);
    Alcotest.(check (option int)) "event count" (Some 3)
      (Option.bind (Option.bind fields (Obs.Json.member "events"))
         Obs.Json.to_int_opt);
    Alcotest.(check bool) "window carried verbatim" true
      (Option.bind (Option.bind fields (Obs.Json.member "window"))
         Obs.Json.to_list_opt
      = Some [ Obs.Json.Int 1; Obs.Json.Int 2; Obs.Json.Int 3 ])
  | ds -> Alcotest.failf "expected 1 retained dump, got %d" (List.length ds));
  (* The ring survives a dump: nearby triggers see overlapping windows. *)
  Obs.Recorder.dump ~reason:"again" ~sim:1.5;
  Alcotest.(check int) "second dump" 2 (Obs.Recorder.dump_count ());
  Obs.Recorder.disable ();
  Obs.Recorder.clear ();
  Alcotest.(check int) "clear resets the dump count" 0
    (Obs.Recorder.dump_count ())

let test_recorder_feeds_from_collector () =
  (* Collector.event must feed the ring when only the recorder is on,
     and dump records must reach the collector sink when tracing is on. *)
  Obs.Collector.disable ();
  Obs.Collector.buffer_sink ();
  Obs.Recorder.clear ();
  Obs.Recorder.enable ~capacity:4 ();
  Obs.Collector.event ~name:"quiet" ~sim:0.5 (fun () -> []);
  Alcotest.(check int) "collector disabled: nothing traced" 0
    (List.length (Obs.Collector.drain ()));
  Alcotest.(check int) "...but the ring saw the event" 1
    (List.length (Obs.Recorder.window ()));
  Obs.Collector.enable ();
  Obs.Recorder.dump ~reason:"traced" ~sim:0.75;
  Obs.Collector.disable ();
  let lines = drain_json () in
  Alcotest.(check bool) "dump emitted through the collector sink" true
    (List.exists (fun j -> sfield "name" j = Some "recorder.dump") lines);
  Obs.Recorder.disable ();
  Obs.Recorder.clear ()

let test_recorder_trigger_registry () =
  Obs.Recorder.clear ();
  Obs.Recorder.enable ~capacity:8 ();
  (* Registration is idempotent and order-preserving. *)
  Obs.Recorder.register_trigger "testreg.swap";
  Obs.Recorder.register_trigger ~suffix_field:"cause" "testreg.trip";
  Obs.Recorder.register_trigger "testreg.swap";
  let mine =
    List.filter
      (fun (p, _) -> String.starts_with ~prefix:"testreg." p)
      (Obs.Recorder.triggers ())
  in
  Alcotest.(check bool) "registered once each" true
    (mine = [ ("testreg.swap", None); ("testreg.trip", Some "cause") ]);
  (* A matching event prefix dumps; a non-matching one only notes. *)
  Obs.Recorder.note_event ~name:"testreg.other" ~sim:1.0 (Obs.Json.Int 1);
  Alcotest.(check int) "no dump on other names" 0
    (Obs.Recorder.dump_count ());
  Obs.Recorder.note_event ~name:"testreg.swap" ~sim:1.5 (Obs.Json.Int 2);
  Alcotest.(check int) "prefix match dumps" 1 (Obs.Recorder.dump_count ());
  (* The suffix field decorates the reason. *)
  Obs.Recorder.note_event ~name:"testreg.trip" ~sim:2.0
    (Obs.Json.Obj
       [ ("fields", Obs.Json.Obj [ ("cause", Obs.Json.String "thermal") ]) ]);
  Alcotest.(check int) "suffix trigger dumps" 2 (Obs.Recorder.dump_count ());
  (match List.rev (Obs.Recorder.dumps ()) with
  | last :: _ ->
    let reason =
      Option.bind
        (Option.bind (Obs.Json.member "fields" last)
           (Obs.Json.member "reason"))
        Obs.Json.to_string_opt
    in
    Alcotest.(check (option string)) "reason carries the suffix"
      (Some "testreg.trip:thermal") reason
  | [] -> Alcotest.fail "expected dumps");
  (* The triggering event sits in the dumped window, last. *)
  Alcotest.(check bool) "raise on empty prefix" true
    (match Obs.Recorder.register_trigger "" with
    | exception Invalid_argument _ -> true
    | () -> false);
  Obs.Recorder.disable ();
  Obs.Recorder.clear ()

(* ------------------------------------------------------------------ *)
(* Health                                                              *)
(* ------------------------------------------------------------------ *)

let populate_health ~errs () =
  let h = Obs.Health.create () in
  let l = Obs.Health.layer h "sw" in
  List.iter
    (fun e -> Obs.Health.note_decision l ~err:e ~saturated:(e > 0.5))
    errs;
  let c = Obs.Health.channel h ~name:"power" ~limit:3.3 ~trip:4.2 in
  List.iter
    (fun e -> Obs.Health.observe_channel c ~value:(3.0 +. e) ~dt:0.5)
    errs;
  List.iter (fun _ -> Obs.Health.note_epoch h ~dt:0.5) errs;
  h

let test_health_accumulates () =
  let h = populate_health ~errs:[ 0.1; 0.6; 0.2 ] () in
  let j = Obs.Health.to_json h in
  let layer0 =
    Option.bind (Obs.Json.member "layers" j) Obs.Json.to_list_opt
    |> Option.map List.hd
  in
  Alcotest.(check (option int)) "decisions" (Some 3)
    (Option.bind (Option.bind layer0 (Obs.Json.member "decisions"))
       Obs.Json.to_int_opt);
  (* One of three decisions saturated. *)
  (match
     Option.bind (Option.bind layer0 (Obs.Json.member "saturation_duty"))
       Obs.Json.to_float_opt
   with
  | Some d -> check_float "saturation duty" (1.0 /. 3.0) d
  | None -> Alcotest.fail "saturation_duty missing");
  (* value 3.6 breaches the 3.3 limit: fraction (3.6-3.3)/0.9 = 1/3,
     and 0.5 s accrues to time-in-violation. *)
  let chan0 =
    Option.bind (Obs.Json.member "channels" j) Obs.Json.to_list_opt
    |> Option.map List.hd
  in
  (match
     Option.bind
       (Option.bind chan0 (Obs.Json.member "worst_guardband_fraction"))
       Obs.Json.to_float_opt
   with
  | Some w -> Alcotest.(check (float 1e-9)) "worst fraction" (1.0 /. 3.0) w
  | None -> Alcotest.fail "worst_guardband_fraction missing");
  (match
     Option.bind (Option.bind chan0 (Obs.Json.member "violation_s"))
       Obs.Json.to_float_opt
   with
  | Some v -> check_float "violation time" 0.5 v
  | None -> Alcotest.fail "violation_s missing");
  (* The render path covers every row type without raising. *)
  Alcotest.(check bool) "render mentions the layer" true
    (let s = Obs.Health.render h in
     String.length s > 0)

let test_health_merge () =
  let a = populate_health ~errs:[ 0.1; 0.6 ] () in
  let b = populate_health ~errs:[ 0.2; 0.3; 0.7 ] () in
  let whole = populate_health ~errs:[ 0.1; 0.6; 0.2; 0.3; 0.7 ] () in
  (* A fresh accumulator adopts the first source's layout... *)
  let merged = Obs.Health.create () in
  Obs.Health.merge_into ~into:merged a;
  Obs.Health.merge_into ~into:merged b;
  Alcotest.(check int) "epochs add" (Obs.Health.epochs whole)
    (Obs.Health.epochs merged);
  (* Counts, extrema and histograms are exact across the merge; only
     mean/EWMA are subject to reassociation/approximation. *)
  let j = Obs.Health.to_json merged and jw = Obs.Health.to_json whole in
  let sim_s j = Option.bind (Obs.Json.member "sim_s" j) Obs.Json.to_float_opt in
  Alcotest.(check (option (float 1e-9))) "sim adds" (sim_s jw) (sim_s j);
  let hist_counts j =
    Option.bind (Obs.Json.member "channels" j) Obs.Json.to_list_opt
    |> Option.map List.hd
    |> Fun.flip Option.bind (Obs.Json.member "fraction_hist")
    |> Fun.flip Option.bind (Obs.Json.member "counts")
  in
  Alcotest.(check bool) "merged histogram exact" true
    (hist_counts j = hist_counts jw && hist_counts j <> None);
  (* ...and mismatched layouts are rejected once populated. *)
  let other = Obs.Health.create () in
  ignore (Obs.Health.layer other "different");
  Alcotest.(check bool) "layout mismatch rejected" true
    (match Obs.Health.merge_into ~into:other a with
    | exception Invalid_argument _ -> true
    | () -> false)

(* ------------------------------------------------------------------ *)
(* Runtime instrumentation contract                                    *)
(* ------------------------------------------------------------------ *)

let short_run () =
  Schemes.run ~max_time:5.0 (Schemes.find_exn "coord")
    [ Board.Workload.by_name "blackscholes" ]

let test_runtime_events_enabled () =
  let r = Obs.Collector.with_collection short_run in
  Alcotest.(check bool) "run progressed" true
    (r.Stack.metrics.Board.Xu3.execution_time > 0.0);
  let lines = drain_json () in
  let epochs =
    List.filter (fun j -> sfield "name" j = Some "runtime.epoch") lines
  in
  (* 5 s of simulated time at 0.5 s epochs: one record per epoch, stamped
     at the *end* of its epoch (0.5, 1.0, ...). The board clock
     accumulates sub-epoch steps, so rounding may admit one extra epoch
     before the [time < max_time] check trips. *)
  let n = List.length epochs in
  if n < 10 || n > 11 then
    Alcotest.failf "expected 10-11 epoch events, got %d" n;
  let sim j =
    match Option.bind (field "sim_s" j) Obs.Json.to_float_opt with
    | Some t -> t
    | None -> Alcotest.fail "epoch event without sim_s"
  in
  List.iteri
    (fun i j ->
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "epoch %d timestamp" i)
        (0.5 *. Float.of_int (i + 1))
        (sim j);
      let fields =
        match field "fields" j with
        | Some f -> f
        | None -> Alcotest.fail "epoch event without fields"
      in
      List.iter
        (fun key ->
          match Option.bind (Obs.Json.member key fields) Obs.Json.to_float_opt with
          | Some v ->
            if not (Float.is_finite v) then
              Alcotest.failf "epoch field %s not finite" key
          | None -> Alcotest.failf "epoch event missing field %s" key)
        [ "power_big"; "power_little"; "bips"; "temperature"; "freq_big" ])
    epochs;
  (* The run-complete record carries the final metrics. *)
  Alcotest.(check bool) "run_complete emitted" true
    (List.exists (fun j -> sfield "name" j = Some "runtime.run_complete") lines)

let test_runtime_silent_disabled () =
  Obs.Collector.disable ();
  Obs.Collector.buffer_sink ();
  ignore (short_run ());
  Alcotest.(check int) "disabled run emits nothing" 0
    (List.length (Obs.Collector.drain ()))

(* The disabled guard is one atomic load: a tight loop over it must not
   allocate (no minor-heap growth beyond noise). This is the cost every
   instrumentation site pays when collection is off. *)
let test_disabled_guard_no_alloc () =
  Obs.Collector.disable ();
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    if Obs.Collector.enabled () then
      failwith "collector unexpectedly enabled"
  done;
  let delta = Gc.minor_words () -. before in
  if delta > 256.0 then
    Alcotest.failf "disabled guard allocated %.0f words over 100k checks" delta

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "basic encoding" `Quick test_json_basic;
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ]
        @ qsuite
            [ json_string_roundtrip; json_int_roundtrip; json_float_roundtrip ]
      );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "histogram percentiles" `Quick
            test_histogram_percentiles;
          Alcotest.test_case "histogram single/overflow" `Quick
            test_histogram_single_and_overflow;
          Alcotest.test_case "dump" `Quick test_metrics_dump;
          Alcotest.test_case "dump sorted by name" `Quick
            test_metrics_dump_sorted;
        ] );
      ( "stats",
        [
          Alcotest.test_case "welford basics" `Quick test_welford_basics;
          Alcotest.test_case "hist basics" `Quick test_hist_basics;
        ]
        @ qsuite [ welford_merge_matches_single; hist_merge_exact ] );
      ( "recorder",
        [
          Alcotest.test_case "ring semantics" `Quick test_recorder_ring;
          Alcotest.test_case "dump record" `Quick test_recorder_dump;
          Alcotest.test_case "collector feed and emit" `Quick
            test_recorder_feeds_from_collector;
          Alcotest.test_case "trigger registry" `Quick
            test_recorder_trigger_registry;
        ] );
      ( "health",
        [
          Alcotest.test_case "accumulates" `Quick test_health_accumulates;
          Alcotest.test_case "merge" `Quick test_health_merge;
        ] );
      ( "collector",
        [
          Alcotest.test_case "disabled is silent" `Quick test_disabled_is_silent;
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "span exception" `Quick test_span_exception;
          Alcotest.test_case "with_collection" `Quick test_with_collection;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "enabled run emits epoch events" `Quick
            test_runtime_events_enabled;
          Alcotest.test_case "disabled run is silent" `Quick
            test_runtime_silent_disabled;
          Alcotest.test_case "disabled guard allocates nothing" `Quick
            test_disabled_guard_no_alloc;
        ] );
    ]
