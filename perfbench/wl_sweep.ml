(* sweep: [Space.default] points through [Sweep.Run.run] at -j 1 with
   the default probe, the sweep users' own plan. The sample is fixed:
   the 9 points (3 epochs x 3 arrangements) of each of two
   hardware-layer specs (guardband, input weight) with one deviation
   bound, drawn with [sample_seed], one round per spec, one point per
   shard of the whole-grid plan so each point's latency is observed. The
   workload seed orders the rounds; the window counts whole samples, so
   every run times the same work.

   A sample starts from an empty design cache. A round has a cold pass
   and warm passes. The cold pass runs in an empty checkpoint directory:
   its first point synthesizes the hardware-layer design nobody has
   synthesized yet (and, in the first round, the software-layer design
   for the bound), and the other points hit the designs stored before
   them. The cold passes alone set the rates. The warm passes then sweep
   the same points again against the filled design cache, each point
   without its checkpoint file, as every later shard of a sharded sweep
   on one machine does; their per-point latencies (design-cache load,
   probe, checkpoint append) are the step samples. The defaults
   every stack needs are loaded in set-up, as in the other workloads.

   A per-run sample of only two specs would make a run's work, not just
   its timing, differ from seed to seed (synthesis time varies by spec),
   so the sample stays fixed. This is the only workload where linalg,
   control and sysid do the work. *)

open Common
open Yukta

let golden_file dir = Filename.concat dir "sweep_points.json"

let plan ?seed () = Sweep.Run.plan ?seed ()

(* Empty the run's private design cache. *)
let clear_cache () =
  if Sys.file_exists Designs.cache_dir then
    Array.iter
      (fun f -> Sys.remove (Filename.concat Designs.cache_dir f))
      (Sys.readdir Designs.cache_dir)

let probe_workloads (plan : Sweep.Run.plan) =
  [
    Board.Workload.scale ~ginsts:plan.Sweep.Run.probe.Sweep.Run.ginsts
      (Board.Workload.by_name plan.Sweep.Run.probe.Sweep.Run.app);
  ]

let stack_of (pt : Sweep.Space.point) hw sw =
  match (pt.Sweep.Space.arrangement, sw) with
  | Sweep.Space.Sw_over_hw, Some sw -> Schemes.yukta_full_stack hw sw
  | Sweep.Space.Hw_over_sw, Some sw ->
    Stack.make ~label:"yukta-rev" [ Schemes.hw_ssv_layer hw; Schemes.sw_ssv_layer sw ]
  | _ -> Schemes.hw_ssv_os_heuristic_stack hw

let hw_spec (pt : Sweep.Space.point) =
  Hw_layer.spec ~uncertainty:pt.Sweep.Space.delta ~input_weight:pt.Sweep.Space.weight
    ~perf_bound:pt.Sweep.Space.bound ()

let needs_sw (pt : Sweep.Space.point) = pt.Sweep.Space.arrangement <> Sweep.Space.Hw_only

(* One shard of [Sweep.Run.run] through its public pieces. A design
   the sample has not met yet is rebuilt with [Design.identify] and
   [Design.synthesize] (which assembles the generalized plant); one it
   has met is loaded from the design cache the untraced sweep filled, as
   [Designs] loads it. Then the probe through the traced stepping loop
   and the record appended to a checkpoint of its own. The cache load
   and the checkpoint I/O carry no span of their own: they are the
   point's remainder, [sweep.other_s]. [count] says whether the lookups
   count towards [designs.cache_hit_ratio] (the cold passes'). *)
let traced_point (plan : Sweep.Run.plan) memo ~count ~hits ~misses ~dir
    (pt : Sweep.Space.point) =
  let r = Designs.get_records () in
  let design kind key spec ~u ~y ~load =
    if Hashtbl.mem memo key then begin
      if count then incr hits;
      load spec
    end
    else begin
      if count then incr misses;
      let model = Tracer.span "sysid.identify" (fun () -> Design.identify spec ~u ~y) in
      let d =
        Tracer.span ("control.synthesize." ^ kind) (fun () -> Design.synthesize spec ~model)
      in
      Hashtbl.add memo key ();
      d
    end
  in
  let hw =
    design "hw"
      (Printf.sprintf "hw %h %h %h" pt.Sweep.Space.delta pt.Sweep.Space.weight pt.Sweep.Space.bound)
      (hw_spec pt) ~u:r.Training.hw_u ~y:r.Training.hw_y ~load:Designs.design_hw_with
  in
  let sw =
    if needs_sw pt then
      Some
        (design "sw"
           (Printf.sprintf "sw %h" pt.Sweep.Space.bound)
           (Sw_layer.spec ~bound:pt.Sweep.Space.bound ())
           ~u:r.Training.sw_u ~y:r.Training.sw_y ~load:Designs.design_sw_with)
    else None
  in
  let stack = Tracer.span "yukta.stack_build" (fun () -> stack_of pt hw sw) in
  let m, _ =
    Tracer.span "sweep.probe" (fun () ->
        traced_stack_run ~max_time:plan.Sweep.Run.probe.Sweep.Run.max_time
          ~epoch:pt.Sweep.Space.epoch stack (probe_workloads plan))
  in
  let designs = hw :: Option.to_list sw in
  let entry =
    {
      Sweep.Frontier.point = pt;
      mu = List.fold_left (fun acc (d : Design.synthesis) -> Float.max acc d.Design.mu_peak) 0.0 designs;
      exd = m.Board.Xu3.energy_delay;
      macs =
        List.fold_left
          (fun acc (d : Design.synthesis) ->
            acc + (Controller.cost d.Design.controller).Controller.multiply_accumulates)
          0 designs;
    }
  in
  let fingerprint = Sweep.Run.fingerprint plan in
  let oc =
    Sweep.Checkpoint.append_channel ~fingerprint ~existing:false
      (Sweep.Checkpoint.path ~dir ~fingerprint ~shard:(pt.Sweep.Space.id + 1)
         ~shards:(Sweep.Run.sample_size plan))
  in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> Sweep.Checkpoint.append oc { Sweep.Checkpoint.entry; synth_wall_s = 0.0 });
  entry

let same_entry (a : Sweep.Frontier.entry) (b : Sweep.Frontier.entry) =
  a.Sweep.Frontier.point.Sweep.Space.id = b.Sweep.Frontier.point.Sweep.Space.id
  && same_float a.Sweep.Frontier.mu b.Sweep.Frontier.mu
  && same_float a.Sweep.Frontier.exd b.Sweep.Frontier.exd
  && a.Sweep.Frontier.macs = b.Sweep.Frontier.macs

(* The golden table: every point of [Space.default] under the default
   probe — its objectives and the probe's epoch count. *)
let write_golden dir =
  let plan = plan () in
  let space = plan.Sweep.Run.space in
  let rows =
    List.init (Sweep.Space.cardinality space) (fun id ->
        let pt = Sweep.Space.point space id in
        let e = (Sweep.Run.evaluate plan pt).Sweep.Checkpoint.entry in
        let hw = Designs.design_hw_with (hw_spec pt) in
        let sw =
          if needs_sw pt then
            Some (Designs.design_sw_with (Sw_layer.spec ~bound:pt.Sweep.Space.bound ()))
          else None
        in
        let _, epochs =
          traced_stack_run ~max_time:plan.Sweep.Run.probe.Sweep.Run.max_time
            ~epoch:pt.Sweep.Space.epoch (stack_of pt hw sw) (probe_workloads plan)
        in
        ( string_of_int id,
          Json.Obj
            [
              ("mu", hex e.Sweep.Frontier.mu);
              ("exd", hex e.Sweep.Frontier.exd);
              ("macs", Json.Int e.Sweep.Frontier.macs);
              ("epochs", Json.Int epochs);
            ] ))
  in
  write_json (golden_file dir) (Json.Obj rows)

type golden_point = { g_entry : Sweep.Frontier.entry; g_epochs : int }

let golden_point golden space id =
  match Json.member (string_of_int id) golden with
  | None -> None
  | Some j -> (
    match (float_field j "mu", float_field j "exd", int_field j "macs", int_field j "epochs") with
    | Some mu, Some exd, Some macs, Some epochs ->
      Some
        {
          g_entry = { Sweep.Frontier.point = Sweep.Space.point space id; mu; exd; macs };
          g_epochs = epochs;
        }
    | _ -> None)

type state = { table : Json.t; plan : Sweep.Run.plan }

let setup ctx =
  load_designs ();
  {
    table = read_json (golden_file ctx.golden);
    plan = plan ~seed:ctx.seed ();
  }

let sample_seed = 42

(* The ids sharing point [pick]'s hardware-layer spec, ascending. *)
let spec_ids space pick =
  let pick = Sweep.Space.point space pick in
  List.filter
    (fun id ->
      let pt = Sweep.Space.point space id in
      pt.Sweep.Space.delta = pick.Sweep.Space.delta
      && pt.Sweep.Space.weight = pick.Sweep.Space.weight
      && pt.Sweep.Space.bound = pick.Sweep.Space.bound)
    (List.init (Sweep.Space.cardinality space) Fun.id)

(* The two rounds of the fixed sample, in the order the workload seed
   gives them. They share the deviation bound, so the software-layer
   design is synthesized once per sample. *)
let rounds space ~seed =
  let n = Sweep.Space.cardinality space in
  let rng = Random.State.make [| sample_seed |] in
  let bound ids = (Sweep.Space.point space (List.hd ids)).Sweep.Space.bound in
  let a = spec_ids space (Random.State.int rng n) in
  let rec other () =
    let b = spec_ids space (Random.State.int rng n) in
    if b = a || bound b <> bound a then other () else b
  in
  let b = other () in
  if Random.State.bool (Random.State.make [| seed |]) then [| a; b |] else [| b; a |]

(* Warm passes per round, and passes per latency slice. Two rounds of
   480 passes over 9 points give ~8600 warm points (~2 s a round) in 48
   slices of whole passes, so every slice holds the same work, and enough
   of it (180 points) for its own 99th percentile. A warm point costs
   under a millisecond, and its tail is file-system stalls of up to tens
   of milliseconds: the 1008 points the first version took in ~0.5 s
   left both percentiles to whatever the host did in that half second. *)
let warm_passes = 480

let slice_passes = 20

let run ctx st =
  let g = gate () in
  (* Rates: one slice per cold pass, the unit a sweep's cost repeats in,
     both kept (the two passes synthesize different specs). Latencies:
     the warm slices. *)
  let slices = Slices.create ~slice_s:infinity () in
  let warm = Slices.create ~slice_s:infinity ~own_p99:true () in
  let hits = ref 0 and misses = ref 0 in
  let untraced_s = ref 0.0 and traced_s = ref 0.0 in
  let plan = st.plan in
  let space = plan.Sweep.Run.space in
  (* The whole grid, one point per shard: shard [id + 1] holds point [id]. *)
  let shards = Sweep.Run.sample_size plan in
  let rounds = rounds space ~seed:ctx.seed in
  (* Sweep point [id] in [dir]; a cold point feeds the rates, a warm one
     the step latencies. In the traced run the traced replica runs too,
     before or after the untraced point in turn, so the effect of going
     second (a heap the first one grew) falls on both sides of the
     tracing overhead. *)
  let calls = ref 0 in
  let sweep_point ~memo ~cold ~dir id =
    incr calls;
    let untraced () =
      let shard = { Sweep.Run.index = id + 1; shards } in
      let c0 = now () in
      let o = Sweep.Run.run ~dir ~shard plan in
      (o, now () -. c0)
    in
    let traced () =
      Tracer.set_run id;
      let c1 = now () in
      let e =
        Tracer.span "unit.sweep" (fun () ->
            traced_point plan memo ~count:cold ~hits ~misses ~dir:(dir ^ "-traced")
              (Sweep.Space.point space id))
      in
      (e, now () -. c1)
    in
    let (o, dt), replica =
      if not ctx.trace then (untraced (), None)
      else if !calls mod 2 = 1 then
        let u = untraced () in
        (u, Some (traced ()))
      else
        let t = traced () in
        (untraced (), Some t)
    in
    let entry =
      match Sweep.Frontier.members o.Sweep.Run.frontier with [ e ] -> Some e | _ -> None
    in
    let expected = golden_point st.table space id in
    let epochs = match expected with Some x -> x.g_epochs | None -> 0 in
    if cold then Slices.add slices ~epochs ~points:1
    else Slices.add warm ~latency:dt ~epochs ~points:1;
    attempt g
      (match (entry, expected) with Some e, Some x -> same_entry e x.g_entry | _ -> false)
      (fun () -> Printf.sprintf "sweep point %d differs from the golden" id);
    Option.iter
      (fun (e, traced_dt) ->
        traced_s := !traced_s +. traced_dt;
        untraced_s := !untraced_s +. dt;
        attempt g
          (match entry with Some u -> same_entry u e | None -> false)
          (fun () -> Printf.sprintf "sweep point %d: traced run differs from untraced" id))
      replica;
    o
  in
  let deadline = now () +. ctx.seconds in
  let round = ref 0 in
  let memo = Hashtbl.create 16 in
  while now () < deadline || !round mod Array.length rounds <> 0 do
    if !round mod Array.length rounds = 0 then begin
      clear_cache ();
      Hashtbl.reset memo
    end;
    let ids = rounds.(!round mod Array.length rounds) in
    Slices.restart slices;
    let outcomes =
      List.map (sweep_point ~memo ~cold:true ~dir:(Printf.sprintf "sweep-round-%d" !round)) ids
    in
    Slices.close slices;
    (* The merged shard frontiers must equal the frontier of the golden
       objectives of the same points. *)
    let merged =
      Sweep.Run.merge (List.map (fun o -> Sweep.Run.artifact ~jobs:1 ~wall_s:0.0 o) outcomes)
    in
    let frontier = Sweep.Frontier.create () in
    List.iter
      (fun id ->
        Option.iter
          (fun x -> ignore (Sweep.Frontier.insert frontier x.g_entry))
          (golden_point st.table space id))
      ids;
    attempt g
      (String.equal (Json.to_string merged)
         (Json.to_string (Sweep.Run.frontier_block plan frontier)))
      (fun () -> Printf.sprintf "sweep round %d: merged frontier differs from the golden" !round);
    (* Each warm point starts without its checkpoint file, which is
       removed, untimed, after the point. A fresh directory per pass
       instead made the latency climb run after run in one checkout. *)
    let fingerprint = Sweep.Run.fingerprint plan in
    Slices.restart warm;
    for pass = 1 to warm_passes do
      List.iter
        (fun id ->
          ignore (sweep_point ~memo ~cold:false ~dir:"sweep-warm" id);
          List.iter
            (fun dir ->
              let f = Sweep.Checkpoint.path ~dir ~fingerprint ~shard:(id + 1) ~shards in
              if Sys.file_exists f then Sys.remove f)
            [ "sweep-warm"; "sweep-warm-traced" ])
        ids;
      if pass mod slice_passes = 0 then Slices.close warm
    done;
    incr round
  done;
  let peak_rss_mb = peak_rss_mb () in
  let lookups = !hits + !misses in
  {
    gate = g;
    rates = slices;
    latencies = warm;
    peak_rss_mb;
    untraced_s = !untraced_s;
    traced_s = !traced_s;
    extras =
      [
        ( "designs.cache_hit_ratio",
          if lookups = 0 then 0.0 else float_of_int !hits /. float_of_int lookups );
      ];
    env = [ ("pool", Json.Int 1); ("connections", Json.Int 0); ("rounds", Json.Int !round) ];
  }
