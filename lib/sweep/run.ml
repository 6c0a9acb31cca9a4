(* The map-reduce sweep driver.

   map: point id -> synthesize (through the .yukta_cache/ content
   addressing) + probe run; reduce: fold each record, in input order, into
   the online frontier and the shard's checkpoint. Everything that can
   reach the frontier is a pure function of the plan; wall-clock
   quantities stay out of it (DESIGN.md section 14). *)

open Yukta

type probe = {
  app : string;
  ginsts : float;
  max_time : float;
}

type plan = {
  space : Space.t;
  seed : int;
  points : int;
  probe : probe;
}

let default_probe = { app = "blackscholes"; ginsts = 60.0; max_time = 240.0 }

let smoke_probe = { app = "blackscholes"; ginsts = 12.0; max_time = 60.0 }

let plan ?(space = Space.default) ?(seed = 42) ?(points = 0)
    ?(probe = default_probe) () =
  (match Board.Workload.by_name probe.app with
  | (_ : Board.Workload.t) -> ()
  | exception _ ->
    invalid_arg (Printf.sprintf "Run.plan: unknown probe app %S" probe.app));
  if probe.ginsts <= 0.0 then invalid_arg "Run.plan: non-positive probe size";
  if probe.max_time <= 0.0 then
    invalid_arg "Run.plan: non-positive probe horizon";
  { space; seed; points; probe }

let sample_size p =
  let n = Space.cardinality p.space in
  if p.points <= 0 || p.points >= n then n else p.points

let fingerprint p =
  let key =
    Printf.sprintf "sweep-v1-%s-seed%d-points%d-%s-%.17g-%.17g"
      (Space.fingerprint p.space) p.seed (sample_size p) p.probe.app
      p.probe.ginsts p.probe.max_time
  in
  String.sub (Digest.to_hex (Digest.string key)) 0 16

type shard = { index : int; shards : int }

let whole = { index = 1; shards = 1 }

let check_shard s =
  if s.shards < 1 || s.index < 1 || s.index > s.shards then
    invalid_arg
      (Printf.sprintf "Run.shard: invalid shard %d/%d" s.index s.shards)

let shard_ids p s =
  check_shard s;
  let ids = Space.sample p.space ~seed:p.seed ~count:p.points in
  List.filteri (fun k _ -> k mod s.shards = s.index - 1) ids

(* ------------------------------------------------------------------ *)
(* Point evaluation                                                    *)
(* ------------------------------------------------------------------ *)

let probe_workloads p =
  [ Board.Workload.scale ~ginsts:p.probe.ginsts
      (Board.Workload.by_name p.probe.app) ]

let evaluate p (pt : Space.point) =
  let t0 = Obs.Collector.now () in
  let hw =
    Designs.design_hw_with
      (Hw_layer.spec ~uncertainty:pt.Space.delta ~input_weight:pt.Space.weight
         ~perf_bound:pt.Space.bound ())
  in
  let sw =
    match pt.Space.arrangement with
    | Space.Hw_only -> None
    | Space.Sw_over_hw | Space.Hw_over_sw ->
      (* The OS controller's bounds scale proportionally, as in the
         paper's Figure 15 study. *)
      Some (Designs.design_sw_with (Sw_layer.spec ~bound:pt.Space.bound ()))
  in
  let synth_wall_s = Obs.Collector.now () -. t0 in
  Obs.Collector.record_span ~name:"sweep.synthesize" ~dur_s:synth_wall_s
    (if Obs.Collector.enabled () then
       [ ("point", Obs.Json.Int pt.Space.id) ]
     else []);
  let stack =
    match (pt.Space.arrangement, sw) with
    | Space.Sw_over_hw, Some sw -> Schemes.yukta_full_stack hw sw
    | Space.Hw_over_sw, Some sw ->
      Stack.make ~label:"yukta-rev"
        [ Schemes.hw_ssv_layer hw; Schemes.sw_ssv_layer sw ]
    | Space.Hw_only, _ -> Schemes.hw_ssv_os_heuristic_stack hw
    | (Space.Sw_over_hw | Space.Hw_over_sw), None -> assert false
  in
  let r =
    Obs.Collector.span ~name:"sweep.point" (fun () ->
        Stack.run ~max_time:p.probe.max_time ~epoch:pt.Space.epoch stack
          (probe_workloads p))
  in
  let mu =
    List.fold_left
      (fun acc (d : Design.synthesis) -> Float.max acc d.Design.mu_peak)
      hw.Design.mu_peak
      (Option.to_list sw)
  in
  let macs =
    List.fold_left
      (fun acc (d : Design.synthesis) ->
        acc + (Controller.cost d.Design.controller).Controller.multiply_accumulates)
      0
      (hw :: Option.to_list sw)
  in
  {
    Checkpoint.entry =
      {
        Frontier.point = pt;
        mu;
        exd = r.Stack.metrics.Board.Xu3.energy_delay;
        macs;
      };
    synth_wall_s;
  }

(* ------------------------------------------------------------------ *)
(* The shard driver                                                    *)
(* ------------------------------------------------------------------ *)

type outcome = {
  plan : plan;
  shard : shard;
  frontier : Frontier.t;
  shard_points : int;
  resumed : int;
  evaluated : int;
  synth_wall_s : float;
  checkpoint : string;
}

let default_dir = ".yukta_sweep"

let run ?(pool = Parallel.Pool.create ~jobs:1) ?(dir = default_dir)
    ?(shard = whole) p =
  check_shard shard;
  let fp = fingerprint p in
  let ids = shard_ids p shard in
  let file =
    Checkpoint.path ~dir ~fingerprint:fp ~shard:shard.index
      ~shards:shard.shards
  in
  let resumed_records = Checkpoint.load ~fingerprint:fp file in
  let frontier = Frontier.create () in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (r : Checkpoint.record) ->
      Hashtbl.replace seen r.Checkpoint.entry.Frontier.point.Space.id ();
      ignore (Frontier.insert frontier r.Checkpoint.entry))
    resumed_records;
  let todo = List.filter (fun id -> not (Hashtbl.mem seen id)) ids in
  let existing = Sys.file_exists file in
  let oc = Checkpoint.append_channel ~fingerprint:fp ~existing file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      (* Single-force before fan-out: warm the shared design memos so
         workers never race a lazy suspension (variant designs are then
         synthesized under Designs' own lock as they are first met). *)
      Designs.prepare ();
      let synth_wall = ref 0.0 in
      let evaluated = ref 0 in
      let reduce () (r : Checkpoint.record) =
        Checkpoint.append oc r;
        ignore (Frontier.insert frontier r.Checkpoint.entry);
        synth_wall := !synth_wall +. r.Checkpoint.synth_wall_s;
        incr evaluated
      in
      Parallel.Pool.map_reduce pool
        ~map:(fun id -> evaluate p (Space.point p.space id))
        ~init:() ~reduce todo;
      {
        plan = p;
        shard;
        frontier;
        shard_points = List.length ids;
        resumed = List.length resumed_records;
        evaluated = !evaluated;
        synth_wall_s = !synth_wall;
        checkpoint = file;
      })

(* ------------------------------------------------------------------ *)
(* Artifacts                                                           *)
(* ------------------------------------------------------------------ *)

let frontier_block p frontier =
  Obs.Json.Obj
    [
      ("fingerprint", Obs.Json.String (fingerprint p));
      ("seed", Obs.Json.Int p.seed);
      ("points", Obs.Json.Int (sample_size p));
      ("cardinality", Obs.Json.Int (Space.cardinality p.space));
      ("space", Space.to_json p.space);
      ( "probe",
        Obs.Json.Obj
          [
            ("app", Obs.Json.String p.probe.app);
            ("ginsts", Obs.Json.Float p.probe.ginsts);
            ("max_time_s", Obs.Json.Float p.probe.max_time);
          ] );
      ( "members",
        Obs.Json.List (List.map Frontier.entry_json (Frontier.members frontier))
      );
    ]

let artifact ?(smoke = false) ~jobs ~wall_s o =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String "yukta.bench-sweep/v1");
      ("smoke", Obs.Json.Bool smoke);
      ("frontier", frontier_block o.plan o.frontier);
      ( "sweep",
        Obs.Json.Obj
          [
            ( "shard",
              Obs.Json.Obj
                [
                  ("index", Obs.Json.Int o.shard.index);
                  ("count", Obs.Json.Int o.shard.shards);
                ] );
            ("shard_points", Obs.Json.Int o.shard_points);
            ("resumed", Obs.Json.Int o.resumed);
            ("evaluated", Obs.Json.Int o.evaluated);
            ("frontier_size", Obs.Json.Int (Frontier.size o.frontier));
            ("checkpoint", Obs.Json.String o.checkpoint);
          ] );
      ( "bench",
        Obs.Json.Obj
          [
            ("jobs", Obs.Json.Int jobs);
            ("wall_s", Obs.Json.Float wall_s);
            ("synth_wall_s", Obs.Json.Float o.synth_wall_s);
          ] );
    ]

let merge docs =
  if docs = [] then invalid_arg "Run.merge: no documents";
  let block doc =
    match Obs.Json.member "frontier" doc with
    | Some (Obs.Json.Obj fields) -> fields
    | _ -> invalid_arg "Run.merge: document has no frontier block"
  in
  let strip fields = List.filter (fun (k, _) -> k <> "members") fields in
  let first = block (List.hd docs) in
  let reference = Obs.Json.to_string (Obs.Json.Obj (strip first)) in
  List.iteri
    (fun i doc ->
      let plan_part = Obs.Json.to_string (Obs.Json.Obj (strip (block doc))) in
      if plan_part <> reference then
        invalid_arg
          (Printf.sprintf
             "Run.merge: document %d comes from a different plan (space, \
              seed, sampling or probe differ)"
             (i + 1)))
    docs;
  let frontier = Frontier.create () in
  List.iter
    (fun doc ->
      match List.assoc_opt "members" (block doc) with
      | Some (Obs.Json.List members) ->
        List.iter
          (fun m ->
            match Frontier.entry_of_json m with
            | Some e -> ignore (Frontier.insert frontier e)
            | None -> invalid_arg "Run.merge: malformed frontier member")
          members
      | _ -> invalid_arg "Run.merge: frontier block has no members list")
    docs;
  let members =
    Obs.Json.List (List.map Frontier.entry_json (Frontier.members frontier))
  in
  Obs.Json.Obj
    (List.map
       (fun (k, v) -> if k = "members" then (k, members) else (k, v))
       first)
