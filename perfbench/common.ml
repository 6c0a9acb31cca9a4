(* Pieces every workload shares: the clock, rate slices, the
   correctness gate, the peak resident set, exact float codecs for
   golden files, the traced stepping loop, and the metric documents. *)

open Yukta
module Json = Obs.Json

let now = Obs.Collector.now

type ctx = {
  seed : int;
  seconds : float;
  trace : bool;
  golden : string;  (** Directory holding the golden files. *)
}

(* The window is cut into slices: runs of consecutive steps about
   [slice_s] of wall time long, or whole passes where a workload closes
   slices itself. Host contention on a shared VM slows every kind of work
   for a fraction of a second to minutes at a time, and never speeds it
   up. Rates and the median latency come from the middle half of the
   slices, ranked by board epochs per second: the slowest quarter (a
   contended moment) and the fastest quarter (a slice that happened to
   hold cheaper steps) drop out. The 99th percentile is set by the host's
   interruptions as much as by the program, so where slices hold many
   steps ([own_p99]) it is each slice's own 99th percentile, read at the
   lower quartile of the slices: a quieter moment of the run, measured in
   full. A change to the program moves every slice, so every one of these
   figures shows it. *)
module Slices = struct
  type slice = {
    mutable dur : float;
    mutable steps : int;
    mutable epochs : int;
    mutable points : int;
    lat : Hist.t;  (** Step latencies, seconds. *)
  }

  type t = {
    slice_s : float;
    own_p99 : bool;
    mutable start : float;
    mutable cur : slice;
    mutable closed : slice list;
    mutable total : int;  (** Steps added, in every slice. *)
  }

  let fresh () = { dur = 0.0; steps = 0; epochs = 0; points = 0; lat = Hist.create () }

  let create ?(slice_s = 0.5) ?(own_p99 = false) () =
    { slice_s; own_p99; start = now (); cur = fresh (); closed = []; total = 0 }

  let close t =
    let n = now () in
    if t.cur.steps > 0 then begin
      t.cur.dur <- n -. t.start;
      t.closed <- t.cur :: t.closed;
      t.cur <- fresh ()
    end;
    t.start <- n

  (* Start the current slice now: time since the last close is left out. *)
  let restart t =
    t.start <- now ();
    t.cur <- fresh ()

  (* One step ended now, after [latency] seconds if it is a latency
     sample, simulating [epochs] board epochs and finishing [points]
     configurations. *)
  let add ?latency t ~epochs ~points =
    let c = t.cur in
    t.total <- t.total + 1;
    c.steps <- c.steps + 1;
    c.epochs <- c.epochs + epochs;
    c.points <- c.points + points;
    Option.iter (Hist.add c.lat) latency;
    if now () -. t.start >= t.slice_s then close t

  let steps t = t.total

  (* The middle half of the closed slices by board epochs per second (at
     least one; all of them when there are fewer than four). *)
  let kept t =
    let rate s = float_of_int s.epochs /. s.dur in
    let by_rate = List.sort (fun a b -> Float.compare (rate b) (rate a)) t.closed in
    let n = List.length by_rate in
    List.filteri (fun i _ -> i >= n / 4 && (i < n - (n / 4) || i = n / 4)) by_rate

  (* [count] per second over the kept slices; nan when none closed. *)
  let rate t count =
    match kept t with
    | [] -> Float.nan
    | ks ->
      let sum f = List.fold_left (fun a s -> a +. f s) 0.0 ks in
      sum (fun s -> float_of_int (count s)) /. sum (fun s -> s.dur)

  (* Latency percentile over the kept slices' steps, seconds. *)
  let percentile t p =
    let h = Hist.create () in
    List.iter (fun s -> Hist.merge_into ~dst:h s.lat) (kept t);
    Hist.percentile h p

  (* The 99th-percentile latency, seconds: with [own_p99], the lower
     quartile of the slices' own 99th percentiles, else {!percentile}
     0.99. *)
  let p99 t =
    let own = List.filter (fun s -> s.lat.Hist.n > 0) t.closed in
    if not t.own_p99 || own = [] then percentile t 0.99
    else begin
      let own = List.sort Float.compare (List.map (fun s -> Hist.percentile s.lat 0.99) own) in
      List.nth own (List.length own / 4)
    end
end

(* Fisher-Yates, in place. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* The correctness gate: each unit of work is one attempted operation,
   failed when its result differs from the reference. *)
type gate = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

let gate () = { attempted = 0; failed = 0; errors = [] }

let fail g ~ops msg =
  g.failed <- g.failed + ops;
  if List.length g.errors < 8 then g.errors <- msg :: g.errors

let attempt g ok msg =
  g.attempted <- g.attempted + 1;
  if not ok then fail g ~ops:1 (msg ())

(* Golden files store floats as hex literals: exact, and parsed back by
   [float_of_string]. *)
let hex x = Json.String (Printf.sprintf "%h" x)

let float_field j k =
  Option.bind (Json.member k j) (fun v ->
      Option.bind (Json.to_string_opt v) float_of_string_opt)

let int_field j k = Option.bind (Json.member k j) Json.to_int_opt

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* This process's peak resident set so far, MB ([VmHWM]). A workload
   reads it when its window closes, before any verification pass
   allocates. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> failwith "perfbench: no VmHWM in /proc/self/status"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> go ()
      in
      go ())

let read_json path = Json.of_string (In_channel.with_open_bin path In_channel.input_all)

let write_json path j =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string ~pretty:true j);
      output_char oc '\n')

(* Records plus every default design, from the run's private cache. *)
let load_designs () =
  Tracer.span "setup.records" (fun () -> ignore (Designs.get_records ()));
  Tracer.span "setup.design_load" Designs.prepare

(* ------------------------------------------------------------------ *)
(* The traced stepping loop                                            *)
(* ------------------------------------------------------------------ *)

let layer_span l = "yukta.layer_step." ^ Layer.label l

(* One epoch's layer steps, each under its own span. *)
let step_layers ?cap ?healths layers board o =
  match healths with
  | None -> List.iter (fun l -> Tracer.span (layer_span l) (fun () -> Layer.step ?cap l board o)) layers
  | Some hs ->
    List.iter2
      (fun l health ->
        Tracer.span (layer_span l) (fun () -> Layer.step ~health ?cap l board o))
      layers hs

(* [Stack.run] driven through its public pieces — [Xu3.run_epoch],
   [Layer.step] and the health monitors — in the order its stepper
   takes them, so the simulated result is the same bit for bit. Returns
   the final metrics and the epoch count. *)
let traced_stack_run ?(max_time = 3000.0) ?(epoch = Stack.default_epoch) stack
    workloads =
  let board = Tracer.span "board.create" (fun () -> Board.Xu3.create workloads) in
  Stack.reset stack;
  let layers = Stack.layers stack in
  let health = Obs.Health.create () in
  let healths = List.map (fun l -> Obs.Health.layer health (Layer.label l)) layers in
  let pb =
    Obs.Health.channel health ~name:"power_big" ~limit:Hw_layer.power_limit_big
      ~trip:Board.Emergency.power_trip_big
  in
  let pl =
    Obs.Health.channel health ~name:"power_little"
      ~limit:Hw_layer.power_limit_little ~trip:Board.Emergency.power_trip_little
  in
  let temp =
    Obs.Health.channel health ~name:"temperature" ~limit:Hw_layer.temp_limit
      ~trip:Board.Emergency.thermal_trip
  in
  let last_time = ref (Board.Xu3.time board) in
  let last_trips = ref (Board.Xu3.trip_count board) in
  let continue = ref true in
  while !continue && Board.Xu3.time board < max_time do
    if Board.Xu3.finished board then continue := false
    else begin
      let o = Tracer.span "board.run_epoch" (fun () -> Board.Xu3.run_epoch board epoch) in
      step_layers ~healths layers board o;
      Tracer.span "yukta.health" (fun () ->
          let t = Board.Xu3.time board in
          let dt = t -. !last_time in
          last_time := t;
          let b, l = Board.Xu3.true_power board in
          Obs.Health.observe_channel pb ~value:b ~dt;
          Obs.Health.observe_channel pl ~value:l ~dt;
          Obs.Health.observe_channel temp ~value:(Board.Xu3.temperature board) ~dt;
          Obs.Health.note_epoch health ~dt;
          let trips = Board.Xu3.trip_count board in
          Obs.Health.note_trips health (trips - !last_trips);
          last_trips := trips)
    end
  done;
  (Board.Xu3.metrics board, Obs.Health.epochs health)

(* ------------------------------------------------------------------ *)
(* Metric documents                                                    *)
(* ------------------------------------------------------------------ *)

(* What a workload's measurement returns. A "step" is the workload's
   unit of work: a suite cell, a fleet run, a served step request, a
   sweep point. *)
type outcome = {
  gate : gate;
  rates : Slices.t;         (** Steps, board epochs and completed
                                configurations, per slice of the window. *)
  latencies : Slices.t;     (** Step latencies, per slice of the window
                                (the same slices as [rates] but on the
                                sweep). *)
  peak_rss_mb : float;      (** {!peak_rss_mb} as the window closed. *)
  untraced_s : float;       (** Traced run: untraced time of the traced work. *)
  traced_s : float;         (** Traced run: traced time of the same work. *)
  extras : (string * float) list;  (** Per-layer values only the workload knows. *)
  env : (string * Json.t) list;
}

let end_to_end o =
  let rate = Slices.rate o.rates in
  [
    ("board_epochs_per_s", rate (fun s -> s.Slices.epochs), "1/s");
    ("frames_per_s", rate (fun s -> s.Slices.steps), "1/s");
    ("step_p50_ms", 1000.0 *. Slices.percentile o.latencies 0.50, "ms");
    ("step_p99_ms", 1000.0 *. Slices.p99 o.latencies, "ms");
    ("points_per_s", rate (fun s -> s.Slices.points), "1/s");
  ]

(* Self time is attributed to a layer by span-name prefix; [unit.*] spans
   are the traced units and [setup.*] spans precede them. *)
let layers = [ "board"; "yukta"; "fleet"; "parallel"; "serve"; "sysid"; "control"; "sweep" ]

let prefix name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Every per-layer metric, in BENCHMARK.json order, with its unit. A
   layer a workload never enters reads 0. *)
let per_layer o =
  let s = Tracer.stats and pct = Tracer.percentile in
  let us name p = 1e6 *. pct (s name) p in
  let extra k = Option.value (List.assoc_opt k o.extras) ~default:0.0 in
  let names = Tracer.names () in
  let self_of layer =
    List.fold_left
      (fun acc n ->
        if prefix n = layer then acc +. (s ~main_only:true n).Tracer.self_s else acc)
      0.0 names
  in
  let unit_total, unit_self, unattributed =
    List.fold_left
      (fun (t, u, x) n ->
        let st = s ~main_only:true n in
        match prefix n with
        | "unit" -> (t +. st.Tracer.total_s, u +. st.Tracer.self_s, x)
        | "setup" -> (t, u, x)
        | p when List.mem p layers -> (t, u, x)
        | _ -> (t, u, x +. st.Tracer.self_s))
      (0.0, 0.0, 0.0) names
  in
  let layer_self = List.map (fun l -> (l, self_of l)) layers in
  let sum_layers = List.fold_left (fun a (_, v) -> a +. v) 0.0 layer_self in
  let other = unit_total -. sum_layers in
  let units = List.fold_left (fun a n -> if prefix n = "unit" then a + (s ~main_only:true n).Tracer.n else a) 0 names in
  [
    ("board.run_epoch_us.p50", us "board.run_epoch" 0.50, "us");
    ("board.run_epoch_us.p99", us "board.run_epoch" 0.99, "us");
    ("board.run_epochs", float_of_int (s "board.run_epoch").Tracer.n, "count");
    ("board.trips", extra "board.trips", "count");
    ("yukta.layer_step_us.hw", us "yukta.layer_step.hw" 0.50, "us");
    ("yukta.layer_step_us.sw", us "yukta.layer_step.sw" 0.50, "us");
    ("yukta.layer_step_us.os", us "yukta.layer_step.os" 0.50, "us");
    ("yukta.health_us", us "yukta.health" 0.50, "us");
    ( "fleet.rack_step_us",
      1e6 *. (Tracer.mean (s "fleet.rack_caps") +. Tracer.mean (s "fleet.rack_step")),
      "us" );
    ("fleet.rack_epoch_ms.p50", 1e3 *. pct (s "fleet.rack_epoch") 0.50, "ms");
    ("fleet.rack_epoch_ms.p99", 1e3 *. pct (s "fleet.rack_epoch") 0.99, "ms");
    ("parallel.map_reduce_ms", 1e3 *. pct (s "parallel.map_reduce") 0.50, "ms");
    ("parallel.busy_frac", extra "parallel.busy_frac", "ratio");
    ("serve.iterate_us", us "serve.iterate" 0.50, "us");
    ("serve.session_process_us", us "serve.session_process" 0.50, "us");
    ("serve.parse_us", us "serve.parse" 0.50, "us");
    ("serve.configure_ms", 1e3 *. pct (s "serve.configure") 0.50, "ms");
    ("serve.client_io_us", us "serve.client_io" 0.50, "us");
    ("serve.busy_rejects", extra "serve.busy_rejects", "1/request");
    ("sysid.identify_s", Tracer.mean (s "sysid.identify"), "s");
    ("control.synthesize_s.hw", Tracer.mean (s "control.synthesize.hw"), "s");
    ("control.synthesize_s.sw", Tracer.mean (s "control.synthesize.sw"), "s");
    ("sweep.probe_s", Tracer.mean (s "sweep.probe"), "s");
    ( "sweep.other_s",
      (let u = s ~main_only:true "unit.sweep" in
       if u.Tracer.n = 0 then 0.0 else u.Tracer.self_s /. float_of_int u.Tracer.n),
      "s" );
    ("designs.cache_hit_ratio", extra "designs.cache_hit_ratio", "ratio");
    ("setup.records_s", (s "setup.records").Tracer.total_s, "s");
    ("setup.design_load_s", (s "setup.design_load").Tracer.total_s, "s");
  ]
  @ List.map (fun (l, v) -> ("self_s." ^ l, v, "s")) layer_self
  @ [
      ("self_s.other", other, "s");
      ("trace.wall_s", unit_total, "s");
      ("trace.units", float_of_int units, "count");
      ("trace.untraced_s", o.untraced_s, "s");
      ("trace.overhead_s", o.traced_s -. o.untraced_s, "s");
      ( "trace.closure_err_s",
        Float.abs (sum_layers +. unit_self +. unattributed -. unit_total),
        "s" );
      ("trace.spans", float_of_int (Tracer.spans_recorded ()), "count");
    ]

let metric_json ms =
  Json.Obj
    (List.map
       (fun (name, v, unit) ->
         (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
       ms)

(* The benchmark program's last stdout line; run.py adds the set-up
   time it measures from outside and re-emits it. *)
let result_line ~trace o =
  Json.to_string
    (Json.Obj
       [
         ("attempted", Json.Int o.gate.attempted);
         ("failed", Json.Int o.gate.failed);
         ("errors", Json.List (List.rev_map (fun e -> Json.String e) o.gate.errors));
         ("metrics", metric_json (if trace then per_layer o else end_to_end o));
         ("peak_rss_mb", Json.Float o.peak_rss_mb);
         ("env", Json.Obj (("ocaml", Json.String Sys.ocaml_version) :: o.env));
       ])
