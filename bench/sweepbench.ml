(* The design-space exploration farm: `bench sweep`.

     dune exec bench/main.exe -- sweep --smoke -j 2 --json OUT
     dune exec bench/main.exe -- sweep --points 64 --seed 7 -j 8
     dune exec bench/main.exe -- sweep --smoke --shard 1/2 --json S1
     dune exec bench/main.exe -- sweep --merge S1 S2 --json OUT

   Each point of the sampled grid synthesizes its controllers (through
   .yukta_cache/) and runs a short probe; results stream into a Pareto
   frontier over (mu peak, E x D, controller MACs). The --json document
   ("yukta.bench-sweep/v1") keeps the deterministic frontier separate
   from wall-clock metadata; schema in BENCHMARKS.md, architecture in
   DESIGN.md section 14. *)

let merge_main files =
  if files = [] then Cli.fail "--merge expects at least one shard document";
  let docs = List.map Cli.read_json files in
  let merged =
    match Sweep.Run.merge docs with
    | doc -> doc
    | exception Invalid_argument msg -> Cli.fail "%s" msg
  in
  let doc =
    Obs.Json.Obj
      [
        ("schema", Obs.Json.String "yukta.bench-sweep/v1");
        ("merged_shards", Obs.Json.Int (List.length files));
        ("frontier", merged);
      ]
  in
  (match Obs.Json.member "members" merged with
  | Some (Obs.Json.List ms) ->
    Printf.printf "merged %d shard documents: frontier of %d points\n"
      (List.length files) (List.length ms)
  | _ -> ());
  if !Cli.json = None then
    print_endline (Obs.Json.to_string ~pretty:true doc)
  else Cli.write_json doc

let main args =
  let points = ref None in
  let seed = ref 42 in
  let shard = ref Sweep.Run.{ index = 1; shards = 1 } in
  let dir = ref ".yukta_sweep" in
  let merge = ref false in
  let files = ref [] in
  let set_shard s =
    match List.map int_of_string_opt (String.split_on_char '/' s) with
    | [ Some i; Some n ] when n >= 1 && i >= 1 && i <= n ->
      shard := Sweep.Run.{ index = i; shards = n }
    | _ -> Cli.bad "--shard expects I/N with 1 <= I <= N, got %S" s
  in
  Cli.parse "bench sweep"
    "usage: bench sweep [FLAG...]\n\
    \       bench sweep --merge FILE... [--json OUT]"
    ~anon:(fun f -> files := f :: !files)
    ([
       Cli.smoke_spec " The smoke grid and probe";
       Cli.json_spec;
       Cli.count "--points" (fun n -> points := Some n)
         "N Sample N points of the grid (default: every point)";
       Cli.count "--seed" (( := ) seed) "N Sampling seed (default 42)";
       ("--shard", Arg.String set_shard, "I/N Run shard I of N (default 1/1)");
       ( "--dir",
         Arg.Set_string dir,
         "DIR Shard checkpoints directory (default .yukta_sweep)" );
       ( "--merge",
         Arg.Set merge,
         " Merge the shard documents FILE... into one frontier" );
     ]
    @ Cli.jobs_specs)
    args;
  if !merge then merge_main (List.rev !files)
  else if !files <> [] then
    Cli.fail "unexpected argument %S (shard documents need --merge)"
      (List.hd (List.rev !files))
  else
    let smoke = !Cli.smoke in
    let space = if smoke then Sweep.Space.smoke else Sweep.Space.default in
    let probe =
      if smoke then Sweep.Run.smoke_probe else Sweep.Run.default_probe
    in
    let plan =
      Sweep.Run.plan ~space ~seed:!seed
        ?points:!points ~probe ()
    in
    let pool = Parallel.Pool.create ~jobs:!Cli.jobs in
    Printf.printf
      "sweep: %d of %d points, seed %d, shard %d/%d, probe %s @ %.0f Ginsts, \
       -j %d\n\
       fingerprint %s, checkpoints under %s/\n\
       %!"
      (Sweep.Run.sample_size plan)
      (Sweep.Space.cardinality space)
      !seed !shard.Sweep.Run.index !shard.Sweep.Run.shards
      plan.Sweep.Run.probe.Sweep.Run.app
      plan.Sweep.Run.probe.Sweep.Run.ginsts !Cli.jobs
      (Sweep.Run.fingerprint plan)
      !dir;
    let t0 = Obs.Collector.now () in
    let outcome = Sweep.Run.run ~pool ~dir:!dir ~shard:!shard plan in
    let wall = Obs.Collector.now () -. t0 in
    Parallel.Pool.shutdown pool;
    Printf.printf
      "shard %d/%d: %d points (%d resumed, %d evaluated), frontier %d, \
       %.1fs wall (%.1fs synthesis)\n"
      outcome.Sweep.Run.shard.Sweep.Run.index
      outcome.Sweep.Run.shard.Sweep.Run.shards
      outcome.Sweep.Run.shard_points outcome.Sweep.Run.resumed
      outcome.Sweep.Run.evaluated
      (Sweep.Frontier.size outcome.Sweep.Run.frontier)
      wall outcome.Sweep.Run.synth_wall_s;
    List.iter
      (fun (e : Sweep.Frontier.entry) ->
        Printf.printf
          "  #%-3d %-7s d=%.2f w=%.2f b=%.2f e=%.2fs  mu=%.3f ExD=%.1f \
           macs=%d\n"
          e.Sweep.Frontier.point.Sweep.Space.id
          (Sweep.Space.arrangement_name
             e.Sweep.Frontier.point.Sweep.Space.arrangement)
          e.Sweep.Frontier.point.Sweep.Space.delta
          e.Sweep.Frontier.point.Sweep.Space.weight
          e.Sweep.Frontier.point.Sweep.Space.bound
          e.Sweep.Frontier.point.Sweep.Space.epoch e.Sweep.Frontier.mu
          e.Sweep.Frontier.exd e.Sweep.Frontier.macs)
      (Sweep.Frontier.members outcome.Sweep.Run.frontier);
    Cli.write_json
      (Sweep.Run.artifact ~smoke ~jobs:!Cli.jobs ~wall_s:wall outcome)
