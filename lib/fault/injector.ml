(* The runtime fault machine: replays a schedule against one board run
   through the Xu3 injector hooks. One injector is one run's worth of
   state — campaigns build a fresh one per execution so runs never share
   fault state. *)

open Board

type t = {
  faults : Spec.timed array;
  active : bool array;
  (* What the sensors last reported (post-corruption): the value a
     dropout freezes. *)
  mutable last_reported : Xu3.outputs option;
  (* Pending actuation requests, newest first, while a Delayed fault is
     active. *)
  mutable config_requests : (float * Xu3.config) list;
  mutable placement_requests : (float * Xu3.placement) list;
  mutable injections : int;
}

let make schedule =
  let faults = Array.of_list schedule in
  {
    faults;
    active = Array.make (Array.length faults) false;
    last_reported = None;
    config_requests = [];
    placement_requests = [];
    injections = 0;
  }

let injections t = t.injections

let injections_metric = Obs.Metrics.counter "fault.injections"

(* Injection events snapshot the flight-recorder window: the dump shows
   what the stack was doing when the fault landed. *)
let () = Obs.Recorder.register_trigger "fault.inject"

let clears_metric = Obs.Metrics.counter "fault.clears"

let fault_fields f =
  match Spec.to_json f with Obs.Json.Obj fields -> fields | _ -> []

let on_tick t ~time =
  Array.iteri
    (fun i f ->
      let now = f.Spec.start <= time && time < Spec.stop f in
      if now && not t.active.(i) then begin
        t.active.(i) <- true;
        t.injections <- t.injections + 1;
        if Obs.Collector.observing () then begin
          Obs.Metrics.incr injections_metric;
          (* Injection is a registered dump trigger: the window shows
             what the stack was doing when the fault landed. *)
          Obs.Collector.event ~name:"fault.inject" ~sim:time (fun () ->
              fault_fields f)
        end
      end
      else if (not now) && t.active.(i) then begin
        t.active.(i) <- false;
        (* A cleared actuator fault drops its pending request backlog:
           the next command applies normally. *)
        (match f.Spec.fault with
        | Spec.Actuator _ ->
          t.config_requests <- [];
          t.placement_requests <- []
        | _ -> ());
        if Obs.Collector.observing () then begin
          Obs.Metrics.incr clears_metric;
          Obs.Collector.event ~name:"fault.clear" ~sim:time (fun () ->
              fault_fields f)
        end
      end)
    t.faults

(* Fold a function over the active faults. *)
let fold_active t f acc =
  let acc = ref acc in
  Array.iteri (fun i flt -> if t.active.(i) then acc := f !acc flt.Spec.fault)
    t.faults;
  !acc

(* ------------------------------------------------------------------ *)
(* Sensor corruption                                                   *)
(* ------------------------------------------------------------------ *)

(* Apply one sensor fault to an outputs record. A Perf fault transforms
   all three BIPS fields consistently (the per-cluster counters fail
   with the aggregate). *)
let apply_sensor (held : Xu3.outputs option) (o : Xu3.outputs) channel kind =
  let scale_perf factor =
    {
      o with
      Xu3.bips = o.Xu3.bips *. factor;
      bips_big = o.Xu3.bips_big *. factor;
      bips_little = o.Xu3.bips_little *. factor;
    }
  in
  match (channel, kind) with
  | Spec.Perf, Spec.Dropout -> (
    match held with
    | Some h ->
      {
        o with
        Xu3.bips = h.Xu3.bips;
        bips_big = h.Xu3.bips_big;
        bips_little = h.Xu3.bips_little;
      }
    | None -> o)
  | Spec.Perf, Spec.Stuck_at v ->
    scale_perf (v /. Float.max 1e-6 o.Xu3.bips)
  | Spec.Perf, Spec.Spike f -> scale_perf f
  | Spec.Power_big, Spec.Dropout -> (
    match held with
    | Some h -> { o with Xu3.power_big = h.Xu3.power_big }
    | None -> o)
  | Spec.Power_big, Spec.Stuck_at v -> { o with Xu3.power_big = v }
  | Spec.Power_big, Spec.Spike f ->
    { o with Xu3.power_big = o.Xu3.power_big *. f }
  | Spec.Power_little, Spec.Dropout -> (
    match held with
    | Some h -> { o with Xu3.power_little = h.Xu3.power_little }
    | None -> o)
  | Spec.Power_little, Spec.Stuck_at v -> { o with Xu3.power_little = v }
  | Spec.Power_little, Spec.Spike f ->
    { o with Xu3.power_little = o.Xu3.power_little *. f }
  | Spec.Temperature, Spec.Dropout -> (
    match held with
    | Some h -> { o with Xu3.temperature = h.Xu3.temperature }
    | None -> o)
  | Spec.Temperature, Spec.Stuck_at v -> { o with Xu3.temperature = v }
  | Spec.Temperature, Spec.Spike f ->
    { o with Xu3.temperature = o.Xu3.temperature *. f }

let sense t ~time:_ (o : Xu3.outputs) =
  let held = t.last_reported in
  let corrupted =
    fold_active t
      (fun acc fault ->
        match fault with
        | Spec.Sensor (channel, kind) -> apply_sensor held acc channel kind
        | _ -> acc)
      o
  in
  t.last_reported <- Some corrupted;
  corrupted

(* ------------------------------------------------------------------ *)
(* Actuator interception                                               *)
(* ------------------------------------------------------------------ *)

let actuator_state t =
  fold_active t
    (fun (stuck, delay) fault ->
      match fault with
      | Spec.Actuator Spec.Stuck -> (true, delay)
      | Spec.Actuator (Spec.Delayed d) ->
        (stuck, Some (match delay with Some d' -> Float.max d d' | None -> d))
      | _ -> (stuck, delay))
    (false, None)

(* A delay line over the request stream: commands are recorded as they
   arrive and the one issued at least [delay] seconds ago is the one
   that applies now (controllers re-command every epoch, so the line
   stays short). *)
let delayed requests current ~time ~delay =
  match List.find_opt (fun (rt, _) -> rt <= time -. delay) requests with
  | Some (_, v) -> v
  | None -> current

let transform_config t ~time ~current c =
  match actuator_state t with
  | true, _ -> current
  | false, Some delay ->
    t.config_requests <- (time, c) :: t.config_requests;
    delayed t.config_requests current ~time ~delay
  | false, None -> c

let transform_placement t ~time ~current p =
  match actuator_state t with
  | true, _ -> current
  | false, Some delay ->
    t.placement_requests <- (time, p) :: t.placement_requests;
    delayed t.placement_requests current ~time ~delay
  | false, None -> p

(* ------------------------------------------------------------------ *)
(* Plant drift gains                                                   *)
(* ------------------------------------------------------------------ *)

let power_gain t ~time:_ =
  fold_active t
    (fun g fault ->
      g *. Spec.power_gain ~guardband:Schedule.default_guardband fault)
    1.0

let thermal_gain t ~time:_ =
  fold_active t
    (fun g fault ->
      g *. Spec.thermal_gain ~guardband:Schedule.default_guardband fault)
    1.0

let perf_gain t ~time:_ =
  fold_active t
    (fun g fault ->
      g *. Spec.perf_gain ~guardband:Schedule.default_guardband fault)
    1.0

let hooks t =
  {
    Xu3.on_tick = (fun ~time -> on_tick t ~time);
    sense = (fun ~time o -> sense t ~time o);
    transform_config =
      (fun ~time ~current c -> transform_config t ~time ~current c);
    transform_placement =
      (fun ~time ~current p -> transform_placement t ~time ~current p);
    power_gain = (fun ~time -> power_gain t ~time);
    thermal_gain = (fun ~time -> thermal_gain t ~time);
    perf_gain = (fun ~time -> perf_gain t ~time);
  }
