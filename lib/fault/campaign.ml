(* Robustness campaigns: replay one fault schedule against every
   registered scheme and report how each degrades relative to its own
   clean run. The campaign is the experiment the paper's robustness
   claim (Section V's guardbands) predicts an outcome for: inside the
   guardband the SSV schemes should keep their deviation guarantees
   while heuristics and LQG drift; outside it nobody has guarantees and
   the question is who degrades gracefully. *)

open Board

type outcome = {
  scheme : Yukta.Schemes.info;
  clean : Xu3.metrics;
  faulted : Xu3.metrics;
  survived : bool;
  exd_inflation : float;
  extra_trips : int;
  recovery_s : float option;
  injections : int;
}

(* The per-epoch E x D rate used for recovery detection: same proxy the
   layer optimizer tracks (power over squared performance). *)
let exd_rate (p : Yukta.Stack.trace_point) =
  (p.Yukta.Stack.power_big +. p.Yukta.Stack.power_little)
  /. (Float.max 0.2 p.Yukta.Stack.bips ** 2.0)

(* Recovery: after the last fault clears at [t_clear], the first epoch
   whose E x D rate returns to within 20% of the pre-fault mean (the
   epochs before the first fault lands). [Some 0.] when the workload
   finished before the faults cleared; [None] when the run never comes
   back (or there is no pre-fault reference to come back to). *)
let recovery_margin = 1.2

let time_to_recover ~schedule ~completed (trace : Yukta.Stack.trace_point array)
    =
  match (Schedule.first_start schedule, Schedule.last_clear schedule) with
  | None, _ | _, None -> None
  | Some t_first, Some t_clear ->
    let pre = ref [] in
    Array.iter
      (fun p -> if p.Yukta.Stack.time < t_first then pre := exd_rate p :: !pre)
      trace;
    (match !pre with
    | [] -> None
    | rates ->
      let reference =
        List.fold_left ( +. ) 0.0 rates /. Float.of_int (List.length rates)
      in
      let after_clear =
        Array.exists (fun p -> p.Yukta.Stack.time >= t_clear) trace
      in
      if not after_clear then if completed then Some 0.0 else None
      else
        let found = ref None in
        Array.iter
          (fun p ->
            if
              !found = None
              && p.Yukta.Stack.time >= t_clear
              && exd_rate p <= recovery_margin *. reference
            then found := Some (p.Yukta.Stack.time -. t_clear))
          trace;
        !found)

let run ?max_time ?(pool = Parallel.Pool.create ~jobs:1) ~schemes
    ~workloads schedule =
  (* One cell per scheme; the clean and faulted runs stay paired inside
     the cell, so parallel fan-out never splits a comparison. The
     single-force rule: building every stack once here warms the design
     memos before any worker starts. *)
  List.iter (fun s -> ignore (Yukta.Schemes.stack s)) schemes;
  Parallel.Pool.map pool
    (fun scheme ->
      let clean_r = Yukta.Schemes.run ?max_time scheme workloads in
      let injector = Injector.make schedule in
      let faulted_r =
        Yukta.Schemes.run ?max_time ~collect_trace:true
          ~injector:(Injector.hooks injector) scheme workloads
      in
      let clean = clean_r.Yukta.Stack.metrics in
      let faulted = faulted_r.Yukta.Stack.metrics in
      {
        scheme;
        clean;
        faulted;
        survived = faulted_r.Yukta.Stack.completed;
        exd_inflation =
          faulted.Xu3.energy_delay /. clean.Xu3.energy_delay;
        extra_trips = faulted.Xu3.trips - clean.Xu3.trips;
        recovery_s =
          time_to_recover ~schedule
            ~completed:faulted_r.Yukta.Stack.completed
            faulted_r.Yukta.Stack.trace;
        injections = Injector.injections injector;
      })
    schemes

let least_inflated outcomes =
  match outcomes with
  | [] -> None
  | o :: rest ->
    Some
      (List.fold_left
         (fun best o -> if o.exd_inflation < best.exd_inflation then o else best)
         o rest)

let outcome_json o =
  let m_json (m : Xu3.metrics) =
    Obs.Json.Obj
      [
        ("execution_time_s", Obs.Json.Float m.Xu3.execution_time);
        ("energy_j", Obs.Json.Float m.Xu3.total_energy);
        ("exd_js", Obs.Json.Float m.Xu3.energy_delay);
        ("trips", Obs.Json.Int m.Xu3.trips);
      ]
  in
  ( o.scheme.Yukta.Schemes.name,
    Obs.Json.Obj
      [
        ("clean", m_json o.clean);
        ("faulted", m_json o.faulted);
        ("exd_inflation", Obs.Json.Float o.exd_inflation);
        ("extra_trips", Obs.Json.Int o.extra_trips);
        ("survived", Obs.Json.Bool o.survived);
        ( "recovery_s",
          match o.recovery_s with
          | Some s -> Obs.Json.Float s
          | None -> Obs.Json.Null );
        ("injections", Obs.Json.Int o.injections);
      ] )

let to_json ~schedule outcomes =
  Obs.Json.Obj
    [
      ("schedule", Schedule.to_json schedule);
      ("outcomes", Obs.Json.Obj (List.map outcome_json outcomes));
      ( "least_inflated",
        match least_inflated outcomes with
        | Some o -> Obs.Json.String o.scheme.Yukta.Schemes.name
        | None -> Obs.Json.Null );
    ]
