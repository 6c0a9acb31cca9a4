(* Tests for the fault-injection subsystem: the schedule generator's
   determinism, the injector's strict pass-through on an empty schedule
   (bit-identical metrics), campaign degradation on a smoke-sized run,
   the configurable stepping epoch. *)

open Board
open Yukta

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A workload small enough that a full scheme run is test-sized but
   long enough for a 60 s fault campaign to land inside it. *)
let small_workload () =
  [ Workload.scale ~ginsts:400.0 (Workload.by_name "blackscholes") ]

(* Heuristic schemes only: no SSV synthesis in the test suite. *)
let coord () = Schemes.find_exn "coord"
let decoupled () = Schemes.find_exn "decoupled"

(* ------------------------------------------------------------------ *)
(* Spec                                                                *)
(* ------------------------------------------------------------------ *)

let test_spec_validation () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check_bool "negative start" true
    (raises (fun () ->
         Fault.Spec.make ~start:(-1.0) ~duration:1.0
           (Fault.Spec.Power_gain_drift 0.5)));
  check_bool "zero duration" true
    (raises (fun () ->
         Fault.Spec.make ~start:1.0 ~duration:0.0
           (Fault.Spec.Power_gain_drift 0.5)));
  check_bool "bad severity" true
    (raises (fun () ->
         Fault.Spec.make ~start:1.0 ~duration:1.0
           (Fault.Spec.Power_gain_drift 0.0)));
  let ok =
    Fault.Spec.make ~start:1.0 ~duration:2.0
      (Fault.Spec.Sensor (Fault.Spec.Perf, Fault.Spec.Dropout))
  in
  Alcotest.(check (float 1e-12)) "stop" 3.0 (Fault.Spec.stop ok)

(* ------------------------------------------------------------------ *)
(* Schedule determinism                                                *)
(* ------------------------------------------------------------------ *)

let test_schedule_deterministic () =
  let profile = Fault.Schedule.in_guardband ~horizon:90.0 ~count:8 () in
  let a = Fault.Schedule.generate ~seed:123 profile in
  let b = Fault.Schedule.generate ~seed:123 profile in
  check_bool "same seed, same schedule" true (a = b);
  check_int "count honored" 8 (List.length a);
  let c = Fault.Schedule.generate ~seed:124 profile in
  check_bool "different seed, different schedule" true (a <> c);
  (* Sorted by start, inside the horizon window. *)
  let sorted = ref true and prev = ref neg_infinity in
  List.iter
    (fun f ->
      if f.Fault.Spec.start < !prev then sorted := false;
      prev := f.Fault.Spec.start;
      check_bool "start in window" true
        (f.Fault.Spec.start >= 0.0 && f.Fault.Spec.start <= 90.0);
      check_bool "positive duration" true (f.Fault.Spec.duration > 0.0))
    a;
  check_bool "sorted by start" true !sorted

(* Both profiles refuse a horizon that is not finite and positive, and
   fewer than one fault. *)
let test_schedule_validation () =
  let refused f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  List.iter
    (fun ( name,
           (profile :
             ?horizon:float -> ?count:int -> unit -> Fault.Schedule.profile) ) ->
      List.iter
        (fun horizon ->
          check_bool
            (Printf.sprintf "%s horizon %g refused" name horizon)
            true
            (refused (fun () -> profile ~horizon ())))
        [ 0.0; -1.0; Float.nan; Float.infinity; Float.neg_infinity ];
      check_bool (name ^ " count 0 refused") true
        (refused (fun () -> profile ~count:0 ()));
      check_bool (name ^ " defaults accepted") false (refused profile))
    [
      ("in-guardband", Fault.Schedule.in_guardband);
      ("out-of-guardband", Fault.Schedule.out_of_guardband);
    ]

(* ------------------------------------------------------------------ *)
(* Injector pass-through                                               *)
(* ------------------------------------------------------------------ *)

(* An injector over an empty schedule must be bitwise invisible: the
   identity hooks and gain-1.0 multiplications change nothing, so the
   metrics match an uninjected run exactly (not approximately). *)
let test_empty_schedule_passthrough () =
  let workloads = small_workload () in
  let bare = Schemes.run (coord ()) workloads in
  let injector = Fault.Injector.make [] in
  let injected =
    Schemes.run ~injector:(Fault.Injector.hooks injector) (coord ()) workloads
  in
  let mb = bare.Stack.metrics and mi = injected.Stack.metrics in
  check_bool "execution time bit-identical" true
    (mb.Xu3.execution_time = mi.Xu3.execution_time);
  check_bool "energy bit-identical" true
    (mb.Xu3.total_energy = mi.Xu3.total_energy);
  check_bool "E x D bit-identical" true
    (mb.Xu3.energy_delay = mi.Xu3.energy_delay);
  check_int "trips identical" mb.Xu3.trips mi.Xu3.trips;
  check_int "no injections" 0 (Fault.Injector.injections injector)

(* An injection event is a dump trigger: with the flight recorder armed,
   the moment a fault lands the preceding event window is snapshotted. *)
let test_injection_dumps_recorder () =
  Obs.Collector.disable ();
  Obs.Recorder.clear ();
  Obs.Recorder.enable ~capacity:16 ();
  let fault =
    Fault.Spec.make ~start:2.0 ~duration:3.0 (Fault.Spec.Power_gain_drift 0.5)
  in
  let injector = Fault.Injector.make [ fault ] in
  ignore
    (Schemes.run ~max_time:30.0 ~injector:(Fault.Injector.hooks injector)
       (coord ()) (small_workload ()));
  check_int "fault fired once" 1 (Fault.Injector.injections injector);
  check_int "one dump per injection" 1 (Obs.Recorder.dump_count ());
  let reasons =
    List.filter_map
      (fun d ->
        Option.bind
          (Option.bind (Obs.Json.member "fields" d)
             (Obs.Json.member "reason"))
          Obs.Json.to_string_opt)
      (Obs.Recorder.dumps ())
  in
  check_bool "dump reason is fault.inject" true (reasons = [ "fault.inject" ]);
  Obs.Recorder.disable ();
  Obs.Recorder.clear ()

(* ------------------------------------------------------------------ *)
(* Campaign                                                            *)
(* ------------------------------------------------------------------ *)

let test_campaign_degradation () =
  let profile = Fault.Schedule.out_of_guardband ~horizon:60.0 ~count:4 () in
  let schedule = Fault.Schedule.generate ~seed:42 profile in
  let outcomes =
    Fault.Campaign.run ~max_time:120.0
      ~schemes:[ coord (); decoupled () ]
      ~workloads:(small_workload ()) schedule
  in
  check_int "one outcome per scheme" 2 (List.length outcomes);
  List.iter
    (fun (o : Fault.Campaign.outcome) ->
      check_bool "faults actually fired" true (o.Fault.Campaign.injections > 0);
      check_bool "out-of-guardband faults degrade E x D" true
        (o.Fault.Campaign.exd_inflation > 1.0);
      check_bool "inflation is finite" true
        (Float.is_finite o.Fault.Campaign.exd_inflation))
    outcomes;
  match Fault.Campaign.least_inflated outcomes with
  | None -> Alcotest.fail "least_inflated on non-empty outcomes"
  | Some best ->
    List.iter
      (fun (o : Fault.Campaign.outcome) ->
        check_bool "least_inflated is minimal" true
          (best.Fault.Campaign.exd_inflation
          <= o.Fault.Campaign.exd_inflation))
      outcomes

(* ------------------------------------------------------------------ *)
(* Stepping epoch                                                      *)
(* ------------------------------------------------------------------ *)

let test_epoch_configurable () =
  let workloads = small_workload () in
  let run ?epoch () = Stack.run ?epoch (Schemes.stack (coord ())) workloads in
  let fast = run ~epoch:0.25 () in
  check_bool "quarter-second epoch completes" true fast.Stack.completed;
  let default = run () in
  check_bool "explicit default matches implicit" true
    ((run ~epoch:Stack.default_epoch ()).Stack.metrics.Xu3.energy_delay
    = default.Stack.metrics.Xu3.energy_delay)

let test_epoch_validated () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  let run epoch () =
    Stack.run ~epoch (Schemes.stack (coord ())) (small_workload ())
  in
  check_bool "zero epoch rejected" true (raises (run 0.0));
  check_bool "negative epoch rejected" true (raises (run (-0.5)))

let () =
  Alcotest.run "fault"
    [
      ( "spec",
        [ Alcotest.test_case "validation" `Quick test_spec_validation ] );
      ( "schedule",
        [
          Alcotest.test_case "deterministic" `Quick
            test_schedule_deterministic;
          Alcotest.test_case "validation" `Quick test_schedule_validation;
        ] );
      ( "injector",
        [
          Alcotest.test_case "empty schedule pass-through" `Quick
            test_empty_schedule_passthrough;
          Alcotest.test_case "injection dumps the flight recorder" `Quick
            test_injection_dumps_recorder;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "degradation" `Quick test_campaign_degradation;
        ] );
      ( "epoch",
        [
          Alcotest.test_case "configurable" `Quick test_epoch_configurable;
          Alcotest.test_case "validated" `Quick test_epoch_validated;
        ] );
    ]
