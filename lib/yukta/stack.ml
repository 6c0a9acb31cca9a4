(* An N-layer control stack and the one stepping loop every execution
   mode shares. *)

open Board

type t = { label : string; layers : Layer.t list }

let make ?(label = "stack") layers =
  if layers = [] then invalid_arg "Stack.make: empty layer list";
  let labels = List.map Layer.label layers in
  if List.length (List.sort_uniq compare labels) <> List.length labels then
    invalid_arg
      (Printf.sprintf "Stack.make: duplicate layer labels in [%s]"
         (String.concat "; " labels));
  { label; layers }

let layers t = t.layers
let reset t = List.iter Layer.reset t.layers
let step ?cap t board o =
  List.iter (fun l -> Layer.step ?cap l board o) t.layers

let default_epoch = 0.5
let default_max_time = 3000.0

type trace_point = {
  time : float;
  power_big : float;
  power_big_sensor : float;
  power_little : float;
  bips : float;
  temperature : float;
  freq_big : float;
  big_cores : int;
}

type result = {
  metrics : Xu3.metrics;
  completed : bool;
  trace : trace_point array;
  health : Obs.Health.t;
}

let trace_point board (o : Xu3.outputs) =
  let pb, pl = Xu3.true_power board in
  let eff = Xu3.effective_config board in
  {
    time = Xu3.time board;
    power_big = pb;
    power_big_sensor = o.Xu3.power_big;
    power_little = pl;
    bips = o.Xu3.bips;
    temperature = o.Xu3.temperature;
    freq_big = eff.Xu3.freq_big;
    big_cores = eff.Xu3.big_cores;
  }

let epochs_metric = Obs.Metrics.counter "runtime.epochs"

(* The per-epoch record is built once and drives both consumers: the
   in-memory [result.trace] array and the collector's event stream carry
   the same data by construction. The whole block is skipped — one
   branch, no allocation — when neither consumer is active. *)
let emit_epoch_event (p : trace_point) =
  Obs.Metrics.incr epochs_metric;
  Obs.Collector.event ~name:"runtime.epoch" ~sim:p.time (fun () ->
    [
      ("power_big", Obs.Json.Float p.power_big);
      ("power_big_sensor", Obs.Json.Float p.power_big_sensor);
      ("power_little", Obs.Json.Float p.power_little);
      ("bips", Obs.Json.Float p.bips);
      ("temperature", Obs.Json.Float p.temperature);
      ("freq_big", Obs.Json.Float p.freq_big);
      ("big_cores", Obs.Json.Int p.big_cores);
    ])

let record_epoch board o ~collect trace =
  if collect || Obs.Collector.observing () then begin
    let p = trace_point board o in
    if collect then trace := p :: !trace;
    if Obs.Collector.observing () then emit_epoch_event p
  end

(* The guardband channels every stack monitors: the evaluation's
   controller limits (Section V-A) against the board's emergency trip
   thresholds. *)
let health_channels health =
  (* Sequenced lets, not a tuple: creation order is output order. *)
  let pb =
    Obs.Health.channel health ~name:"power_big"
      ~limit:Hw_layer.power_limit_big ~trip:Emergency.power_trip_big
  in
  let pl =
    Obs.Health.channel health ~name:"power_little"
      ~limit:Hw_layer.power_limit_little ~trip:Emergency.power_trip_little
  in
  let temp =
    Obs.Health.channel health ~name:"temperature" ~limit:Hw_layer.temp_limit
      ~trip:Emergency.thermal_trip
  in
  (pb, pl, temp)

(* The single stepping loop, reified: every execution mode — the batch
   [run] below, the serving sessions, the benches — advances epochs
   through the same [step_epoch], so a session that hosts a stepper is
   bit-identical to a batch run of the same stack by construction. *)
type stepper = {
  s_stack : t;
  board : Xu3.t;
  epoch : float;
  health : Obs.Health.t;
  hlayers : Obs.Health.layer list;
  ch_pb : Obs.Health.channel;
  ch_pl : Obs.Health.channel;
  ch_temp : Obs.Health.channel;
  mutable last_time : float;
  mutable last_trips : int;
  mutable epochs : int;
}

let stepper ?sensor_period ?(epoch = default_epoch) ?injector t workloads =
  if not (epoch > 0.0) then
    invalid_arg "Stack.stepper: epoch must be positive";
  let board = Xu3.create ?sensor_period ?injector workloads in
  reset t;
  (* Health monitoring is always on: it is pure observation of
     simulated-time data (true power/temperature, trip counts, the
     controllers' own step buffers), so it cannot perturb the run. *)
  let health = Obs.Health.create () in
  let hlayers =
    List.map (fun l -> Obs.Health.layer health (Layer.label l)) t.layers
  in
  let ch_pb, ch_pl, ch_temp = health_channels health in
  {
    s_stack = t;
    board;
    epoch;
    health;
    hlayers;
    ch_pb;
    ch_pl;
    ch_temp;
    last_time = Xu3.time board;
    last_trips = Xu3.trip_count board;
    epochs = 0;
  }

let board s = s.board
let stack s = s.s_stack
let health s = s.health
let time s = Xu3.time s.board
let finished s = Xu3.finished s.board
let epoch_count s = s.epochs

let step_epoch s =
  if Xu3.finished s.board then None
  else begin
    let o = Xu3.run_epoch s.board s.epoch in
    List.iter2
      (fun l hl -> Layer.step ~health:hl l s.board o)
      s.s_stack.layers s.hlayers;
    let now = Xu3.time s.board in
    let dt = now -. s.last_time in
    s.last_time <- now;
    let pb, pl = Xu3.true_power s.board in
    Obs.Health.observe_channel s.ch_pb ~value:pb ~dt;
    Obs.Health.observe_channel s.ch_pl ~value:pl ~dt;
    Obs.Health.observe_channel s.ch_temp ~value:(Xu3.temperature s.board) ~dt;
    Obs.Health.note_epoch s.health ~dt;
    let trips = Xu3.trip_count s.board in
    Obs.Health.note_trips s.health (trips - s.last_trips);
    s.last_trips <- trips;
    s.epochs <- s.epochs + 1;
    Some o
  end

let complete_event s =
  if Obs.Collector.observing () then begin
    let m = Xu3.metrics s.board in
    Obs.Collector.event ~name:"runtime.run_complete" ~sim:(Xu3.time s.board)
      (fun () ->
        [
          ("stack", Obs.Json.String s.s_stack.label);
          ("layers", Obs.Json.Int (List.length s.s_stack.layers));
          ("execution_time_s", Obs.Json.Float m.Xu3.execution_time);
          ("energy_j", Obs.Json.Float m.Xu3.total_energy);
          ("energy_delay_js", Obs.Json.Float m.Xu3.energy_delay);
          ("trips", Obs.Json.Int m.Xu3.trips);
          ("completed", Obs.Json.Bool (Xu3.finished s.board));
        ])
  end

let result_of_stepper s ~trace =
  {
    metrics = Xu3.metrics s.board;
    completed = Xu3.finished s.board;
    trace = Array.of_list (List.rev trace);
    health = s.health;
  }

let run ?(max_time = default_max_time) ?(collect_trace = false)
    ?sensor_period ?epoch ?injector t workloads =
  let s = stepper ?sensor_period ?epoch ?injector t workloads in
  let trace = ref [] in
  let continue = ref true in
  while !continue && Xu3.time s.board < max_time do
    match step_epoch s with
    | None -> continue := false
    | Some o -> record_epoch s.board o ~collect:collect_trace trace
  done;
  complete_event s;
  result_of_stepper s ~trace:!trace
