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

let usage () =
  prerr_endline
    "usage: bench sweep [--smoke] [-j N] [--json OUT] [--points N] [--seed N]\n\
    \                   [--shard I/N] [--dir DIR]\n\
    \       bench sweep --merge FILE... [--json OUT]";
  2

let read_doc path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  match Obs.Json.of_string s with
  | doc -> doc
  | exception Obs.Json.Parse_error msg ->
    Printf.eprintf "bench sweep: %s: %s\n" path msg;
    exit 2

let write_doc path doc =
  let oc = open_out path in
  output_string oc (Obs.Json.to_string ~pretty:true doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" path

let merge_main files json_path =
  if files = [] then exit (usage ());
  let docs = List.map read_doc files in
  let merged =
    match Sweep.Run.merge docs with
    | doc -> doc
    | exception Invalid_argument msg ->
      Printf.eprintf "bench sweep: %s\n" msg;
      exit 2
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
  (match json_path with
  | Some path -> write_doc path doc
  | None -> print_endline (Obs.Json.to_string ~pretty:true doc));
  0

let main args =
  let smoke = ref false in
  let jobs = ref 1 in
  let json_path = ref None in
  let points = ref None in
  let seed = ref 42 in
  let shard = ref Sweep.Run.{ index = 1; shards = 1 } in
  let dir = ref ".yukta_sweep" in
  let merge_files = ref None in
  let bad fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt in
  let int_value flag n k =
    match int_of_string_opt n with
    | Some v when v >= 1 -> k v
    | _ -> bad "bench sweep: %s expects an integer >= 1, got %S" flag n
  in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
      smoke := true;
      parse rest
    | ("-j" | "--jobs") :: n :: rest ->
      int_value "-j" n (fun v -> jobs := v);
      parse rest
    | "--json" :: path :: rest ->
      json_path := Some path;
      parse rest
    | "--points" :: n :: rest ->
      int_value "--points" n (fun v -> points := Some v);
      parse rest
    | "--seed" :: n :: rest ->
      int_value "--seed" n (fun v -> seed := v);
      parse rest
    | "--shard" :: s :: rest ->
      (match String.split_on_char '/' s with
      | [ i; n ] -> (
        match (int_of_string_opt i, int_of_string_opt n) with
        | Some i, Some n when n >= 1 && i >= 1 && i <= n ->
          shard := Sweep.Run.{ index = i; shards = n }
        | _ -> bad "bench sweep: --shard expects I/N with 1 <= I <= N, got %S" s)
      | _ -> bad "bench sweep: --shard expects I/N, got %S" s);
      parse rest
    | "--dir" :: d :: rest ->
      dir := d;
      parse rest
    | "--merge" :: rest ->
      (* Everything after --merge that is not a flag is a shard document. *)
      let rec files acc = function
        | [] -> List.rev acc
        | "--json" :: path :: rest ->
          json_path := Some path;
          files acc rest
        | [ "--json" ] ->
          prerr_endline "bench sweep: missing value after --json";
          exit 2
        | f :: rest -> files (f :: acc) rest
      in
      merge_files := Some (files [] rest)
    | [ ("-j" | "--jobs" | "--json" | "--points" | "--seed" | "--shard"
        | "--dir") ] ->
      prerr_endline "bench sweep: missing value after last flag";
      exit 2
    | a :: _ ->
      Printf.eprintf "bench sweep: unknown argument %S\n" a;
      exit (usage ())
  in
  parse args;
  match !merge_files with
  | Some files -> merge_main files !json_path
  | None ->
    let space = if !smoke then Sweep.Space.smoke else Sweep.Space.default in
    let probe =
      if !smoke then Sweep.Run.smoke_probe else Sweep.Run.default_probe
    in
    let plan =
      Sweep.Run.plan ~space ~seed:!seed
        ?points:!points ~probe ()
    in
    let pool = Parallel.Pool.create ~jobs:!jobs in
    Printf.printf
      "sweep: %d of %d points, seed %d, shard %d/%d, probe %s @ %.0f Ginsts, \
       -j %d\n\
       fingerprint %s, checkpoints under %s/\n\
       %!"
      (Sweep.Run.sample_size plan)
      (Sweep.Space.cardinality space)
      !seed !shard.Sweep.Run.index !shard.Sweep.Run.shards
      plan.Sweep.Run.probe.Sweep.Run.app
      plan.Sweep.Run.probe.Sweep.Run.ginsts !jobs
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
    (match !json_path with
    | None -> ()
    | Some path ->
      write_doc path
        (Sweep.Run.artifact ~smoke:!smoke ~jobs:!jobs ~wall_s:wall outcome));
    0
