type phase = {
  threads : int;
  ginsts : float;
  mem_intensity : float;
  ipc_scale : float;
  sync_factor : float;
}

type t = { name : string; phases : phase list }

let validate { name; phases } =
  if phases = [] then invalid_arg ("Workload " ^ name ^ ": no phases");
  List.iter
    (fun p ->
      if p.threads <= 0 then invalid_arg ("Workload " ^ name ^ ": no threads");
      if p.ginsts <= 0.0 then
        invalid_arg ("Workload " ^ name ^ ": non-positive budget");
      if p.mem_intensity < 0.0 || p.mem_intensity > 1.0 then
        invalid_arg ("Workload " ^ name ^ ": mem_intensity out of [0,1]");
      if p.ipc_scale <= 0.0 then
        invalid_arg ("Workload " ^ name ^ ": non-positive ipc_scale");
      if p.sync_factor < 0.0 || p.sync_factor > 1.0 then
        invalid_arg ("Workload " ^ name ^ ": sync_factor out of [0,1]"))
    phases

let total_ginsts w = List.fold_left (fun acc p -> acc +. p.ginsts) 0.0 w.phases

let max_threads w = List.fold_left (fun acc p -> max acc p.threads) 0 w.phases

let scale ?threads ?ginsts w =
  let tscale p =
    match threads with None -> p.threads | Some t -> min t p.threads
  in
  let gscale =
    match ginsts with
    | None -> 1.0
    | Some g -> g /. total_ginsts w
  in
  {
    w with
    phases =
      List.map
        (fun p -> { p with threads = tscale p; ginsts = p.ginsts *. gscale })
        w.phases;
  }

(* Global budget scale chosen so executions run 150-300 s under the
   baseline controller, the range of the paper's native/train inputs. *)
let duration_scale = 2.5

let ph ?(sync = 0.0) threads ginsts mem_intensity ipc_scale =
  {
    threads;
    ginsts = ginsts *. duration_scale;
    mem_intensity;
    ipc_scale;
    sync_factor = sync;
  }

(* PARSEC with native-input scale: phase structure follows the programs'
   published parallelism profiles (serial prologue for blackscholes and
   raytrace, frame-batch thread variation for x264, barrier-separated
   passes for streamcluster, heavy memory traffic for canneal). *)
let parsec =
  [
    {
      name = "blackscholes";
      phases = [ ph 1 18.0 0.10 1.0; ph ~sync:0.25 8 700.0 0.12 1.05 ];
    };
    {
      name = "bodytrack";
      phases =
        [ ph 1 8.0 0.2 0.9; ph ~sync:0.4 8 240.0 0.30 0.95; ph 1 8.0 0.2 0.9; ph ~sync:0.4 8 240.0 0.30 0.95 ];
    };
    { name = "facesim"; phases = [ ph ~sync:0.45 8 600.0 0.35 0.90 ] };
    { name = "fluidanimate"; phases = [ ph ~sync:0.5 8 560.0 0.40 0.85 ] };
    {
      name = "raytrace";
      phases = [ ph 1 14.0 0.15 1.1; ph ~sync:0.25 8 640.0 0.20 1.10 ];
    };
    {
      name = "x264";
      phases =
        [ ph ~sync:0.25 4 120.0 0.25 1.0; ph ~sync:0.25 8 300.0 0.25 1.0; ph ~sync:0.25 2 60.0 0.25 1.0; ph ~sync:0.25 8 280.0 0.25 1.0 ];
    };
    { name = "canneal"; phases = [ ph ~sync:0.3 8 300.0 0.75 0.60 ] };
    {
      name = "streamcluster";
      phases = [ ph ~sync:0.6 8 330.0 0.70 0.65; ph 1 8.0 0.4 0.8; ph ~sync:0.6 8 160.0 0.70 0.65 ];
    };
  ]

(* SPEC rate-style: 8 identical copies, statistically flat phases. *)
let spec =
  [
    { name = "h264ref"; phases = [ ph 8 800.0 0.15 1.20 ] };
    { name = "mcf"; phases = [ ph 8 230.0 0.90 0.45 ] };
    { name = "omnetpp"; phases = [ ph 8 300.0 0.65 0.60 ] };
    { name = "gamess"; phases = [ ph 8 860.0 0.08 1.25 ] };
    { name = "gromacs"; phases = [ ph 8 780.0 0.12 1.15 ] };
    { name = "dealII"; phases = [ ph 8 600.0 0.35 1.00 ] };
  ]

let evaluation_suite = spec @ parsec

let training =
  [
    { name = "swaptions"; phases = [ ph ~sync:0.15 8 500.0 0.10 1.10 ] };
    { name = "vips"; phases = [ ph 1 10.0 0.3 0.9; ph ~sync:0.3 8 430.0 0.30 0.95 ] };
    { name = "astar"; phases = [ ph 8 340.0 0.50 0.75 ] };
    { name = "perlbench"; phases = [ ph 8 500.0 0.25 1.05 ] };
    { name = "milc"; phases = [ ph 8 280.0 0.80 0.55 ] };
    { name = "namd"; phases = [ ph 8 700.0 0.10 1.15 ] };
  ]

let all = parsec @ spec @ training

let by_name name = List.find (fun w -> w.name = name) all

(* 4-thread halves for the heterogeneous mixes: half the threads, and
   roughly half the instruction budget (PARSEC inputs shrink with thread
   count in the paper's setup; SPEC mixes run 4 copies). *)
let half name =
  let w = by_name name in
  scale ~threads:4 ~ginsts:(total_ginsts w /. 2.0) w

let synthetic ?(seed = 1) ?(ginsts = 600.0) () =
  (* Three phases, threads per phase drawn from 1..8; the phase count
     and the bound are also part of the RNG seed, so changing either
     changes every draw. *)
  let phases = 3 in
  let st = Random.State.make [| seed; phases; 8 |] in
  let weights = Array.init phases (fun _ -> 0.2 +. Random.State.float st 1.0) in
  let total_w = Array.fold_left ( +. ) 0.0 weights in
  let phase i =
    {
      threads = 1 + Random.State.int st 8;
      ginsts = ginsts *. weights.(i) /. total_w;
      mem_intensity = Random.State.float st 0.9;
      ipc_scale = 0.5 +. Random.State.float st 0.75;
      sync_factor = Random.State.float st 0.6;
    }
  in
  let w =
    {
      name = Printf.sprintf "synthetic-%d" seed;
      phases = List.init phases phase;
    }
  in
  validate w;
  w

let mixes =
  [
    ("blmc", [ half "blackscholes"; half "mcf" ]);
    ("stga", [ half "streamcluster"; half "gamess" ]);
    ("blst", [ half "blackscholes"; half "streamcluster" ]);
    ("mcga", [ half "mcf"; half "gamess" ]);
  ]

let app_names = List.map (fun w -> w.name) all @ List.map fst mixes

let resolve name =
  match List.assoc_opt name mixes with
  | Some jobs -> Some jobs
  | None ->
    Option.map (fun w -> [ w ]) (List.find_opt (fun w -> w.name = name) all)

let () = List.iter validate all
