(* Evaluation drivers: run schemes across the paper's suite and normalize
   to the Coordinated heuristic baseline, as every figure does. Rows are
   keyed by registry entries ({!Schemes.info}), so any registered scheme —
   including stacks of more than two layers — joins a suite unchanged. *)

type app_result = {
  app : string;
  scheme : Schemes.info;
  metrics : Board.Xu3.metrics;
  completed : bool;
  health : Obs.Health.t;
}

let run_app ?max_time scheme (name, workloads) =
  let t0 = if Obs.Collector.enabled () then Obs.Collector.now () else 0.0 in
  let r = Schemes.run ?max_time scheme workloads in
  let result =
    {
      app = name;
      scheme;
      metrics = r.Stack.metrics;
      completed = r.Stack.completed;
      health = r.Stack.health;
    }
  in
  if Obs.Collector.enabled () then
    Obs.Collector.record_span ~name:"experiment.app"
      ~dur_s:(Obs.Collector.now () -. t0)
      [
        ("app", Obs.Json.String name);
        ("scheme", Obs.Json.String scheme.Schemes.name);
        ("exd_js", Obs.Json.Float r.Stack.metrics.Board.Xu3.energy_delay);
        ( "execution_time_s",
          Obs.Json.Float r.Stack.metrics.Board.Xu3.execution_time );
      ];
  result

let suite_entries () =
  List.map
    (fun w -> (w.Board.Workload.name, [ w ]))
    Board.Workload.evaluation_suite

let mix_entries () = Board.Workload.mixes

(* Geometric-mean-free averaging as in the paper's bar charts: arithmetic
   mean of per-application normalized values. *)
let average = function
  | [] -> invalid_arg "Experiment.average: empty list"
  | xs -> List.fold_left ( +. ) 0.0 xs /. Float.of_int (List.length xs)

type normalized_row = {
  name : string;
  exd : (Schemes.info * float) list;   (* Normalized E x D per scheme. *)
  time : (Schemes.info * float) list;  (* Normalized execution time. *)
  raw : (Schemes.info * app_result) list;  (* Un-normalized results. *)
}

(* Chunk [xs] into rows of [k] (cells are flattened entry-major). *)
let rec group k xs =
  match xs with
  | [] -> []
  | xs ->
    let rec split n acc rest =
      if n = 0 then (List.rev acc, rest)
      else
        match rest with
        | x :: tl -> split (n - 1) (x :: acc) tl
        | [] -> invalid_arg "Experiment.group: ragged grid"
    in
    let row, rest = split k [] xs in
    row :: group k rest

(* Run [schemes] on every entry and normalize each metric to the first
   scheme in the list (the baseline). *)
let run_suite ?max_time ?(pool = Parallel.Pool.create ~jobs:1) ~schemes
    entries =
  let baseline =
    match schemes with
    | [] -> invalid_arg "Experiment.run_suite: no schemes"
    | s :: _ -> s
  in
  (* Single-force before fan-out: building each scheme's stack once in
     the coordinating domain warms every design memo the grid needs
     (Designs serializes forcing, but workers should not queue on it),
     and puts any synthesis trace ahead of every cell's at any -j. *)
  List.iter (fun s -> ignore (Schemes.stack s)) schemes;
  let cells =
    List.concat_map
      (fun entry -> List.map (fun s -> (entry, s)) schemes)
      entries
  in
  let results =
    Parallel.Pool.map pool
      (fun (entry, s) -> (s, run_app ?max_time s entry))
      cells
  in
  List.map2
    (fun entry results ->
      let name = fst entry in
      let base = (List.assoc baseline results).metrics in
      let exd =
        List.map
          (fun (s, r) ->
            (s, r.metrics.Board.Xu3.energy_delay /. base.Board.Xu3.energy_delay))
          results
      in
      let time =
        List.map
          (fun (s, r) ->
            ( s,
              r.metrics.Board.Xu3.execution_time
              /. base.Board.Xu3.execution_time ))
          results
      in
      { name; exd; time; raw = results })
    entries
    (group (List.length schemes) results)

(* Suite averages in the figure-9 layout: SPEC average, PARSEC average,
   and overall average, computed on the normalized values. An empty
   subset (e.g. a reduced suite with no PARSEC entries) averages to nan,
   which the table printers render as a blank column. *)
let averages rows ~spec_names ~parsec_names ~value =
  let pick names =
    List.filter (fun r -> List.mem r.name names) rows
  in
  let avg_of rows_subset scheme =
    match rows_subset with
    | [] -> Float.nan
    | _ -> average (List.map (fun r -> List.assoc scheme (value r)) rows_subset)
  in
  fun scheme ->
    let sav = avg_of (pick spec_names) scheme in
    let pav = avg_of (pick parsec_names) scheme in
    let avg = avg_of rows scheme in
    (sav, pav, avg)

(* JSON rendering of a suite: per-app, per-scheme raw and normalized
   metrics in the shape bench's [--json] output embeds. *)
let row_json (r : normalized_row) =
  Obs.Json.Obj
    [
      ("app", Obs.Json.String r.name);
      ( "schemes",
        Obs.Json.Obj
          (List.map
             (fun ((s : Schemes.info), (a : app_result)) ->
               let m = a.metrics in
               ( s.Schemes.name,
                 Obs.Json.Obj
                   [
                     ("exd_norm", Obs.Json.Float (List.assoc s r.exd));
                     ("time_norm", Obs.Json.Float (List.assoc s r.time));
                     ("exd_js", Obs.Json.Float m.Board.Xu3.energy_delay);
                     ( "execution_time_s",
                       Obs.Json.Float m.Board.Xu3.execution_time );
                     ("energy_j", Obs.Json.Float m.Board.Xu3.total_energy);
                     ("trips", Obs.Json.Int m.Board.Xu3.trips);
                     ("completed", Obs.Json.Bool a.completed);
                   ] ))
             r.raw) );
    ]

(* Fleet health: fold every row's per-scheme health into one aggregate
   per scheme, always in row order — the fold is independent of how the
   cells were scheduled, so the block is byte-identical at any -j. *)
let suite_health_json rows =
  let schemes =
    match rows with [] -> [] | r :: _ -> List.map fst r.raw
  in
  Obs.Json.Obj
    (List.map
       (fun (s : Schemes.info) ->
         let merged = Obs.Health.create () in
         List.iter
           (fun r ->
             let a = List.assoc s r.raw in
             Obs.Health.merge_into ~into:merged a.health)
           rows;
         (s.Schemes.name, Obs.Health.to_json merged))
       schemes)

let suite_json rows =
  let schemes =
    match rows with [] -> [] | r :: _ -> List.map fst r.raw
  in
  let avg value scheme =
    match rows with
    | [] -> Float.nan
    | _ -> average (List.map (fun r -> List.assoc scheme (value r)) rows)
  in
  Obs.Json.Obj
    [
      ("rows", Obs.Json.List (List.map row_json rows));
      ( "averages",
        Obs.Json.Obj
          (List.map
             (fun (s : Schemes.info) ->
               ( s.Schemes.name,
                 Obs.Json.Obj
                   [
                     ("exd_norm", Obs.Json.Float (avg (fun r -> r.exd) s));
                     ("time_norm", Obs.Json.Float (avg (fun r -> r.time) s));
                   ] ))
             schemes) );
    ]
