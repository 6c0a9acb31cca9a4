(* A single resource-control layer: heuristic or controlled, stepped
   once per epoch by a Stack. *)

open Linalg
open Board

(* Retarget interval: the optimizer moves every few epochs so the
   controller has time to settle on each target set. *)
let optimizer_interval = 5

(* Exponentially averaged E x D rate: instantaneous power over squared
   performance is the per-epoch proxy for E x D (Section IV-D). *)
let exd_rate (o : Xu3.outputs) =
  (o.Xu3.power_big +. o.Xu3.power_little)
  /. (Float.max 0.2 o.Xu3.bips ** 2.0)

type exd_tracker = { mutable ema : float; mutable primed : bool }

let exd_tracker () = { ema = 0.0; primed = false }

let exd_update t o =
  let v = exd_rate o in
  if t.primed then t.ema <- (0.5 *. t.ema) +. (0.5 *. v)
  else begin
    t.ema <- v;
    t.primed <- true
  end;
  t.ema

type targets =
  | Optimized of Optimizer.t
  | Fixed of Vec.t

type controlled = {
  mutable controller : Controller.t;
  mutable targets : targets;
  tracker : exd_tracker;
  measure : Xu3.outputs -> Vec.t;
  mutable externals : Xu3.t -> Vec.t;
  actuate : Xu3.t -> Vec.t -> unit;
  on_reset : unit -> unit;
  mutable epoch_index : int;
  (* Rewrites the target vector when an external power cap is active
     (rack apportionment); must return a fresh vector, never mutate its
     argument. None (or no cap): targets pass through untouched. *)
  cap_targets : (cap:float -> Vec.t -> Vec.t) option;
}

type heuristic = {
  h_reset : unit -> unit;
  h_act : Xu3.t -> Xu3.outputs -> unit;
  mutable h_epoch : int;
}

type kind = Heuristic of heuristic | Controlled of controlled

type t = { label : string; kind : kind }

let heuristic ~label ?(reset = fun () -> ()) ~act () =
  { label; kind = Heuristic { h_reset = reset; h_act = act; h_epoch = 0 } }

let controlled ~label ?(on_reset = fun () -> ()) ?cap_targets ~controller
    ~targets ~measure ~externals ~actuate () =
  {
    label;
    kind =
      Controlled
        {
          controller;
          targets;
          tracker = exd_tracker ();
          measure;
          externals;
          actuate;
          on_reset;
          epoch_index = 0;
          cap_targets;
        };
  }

let label t = t.label

let is_controlled t =
  match t.kind with Controlled _ -> true | Heuristic _ -> false

let as_controlled op t =
  match t.kind with
  | Controlled c -> c
  | Heuristic _ ->
    invalid_arg (Printf.sprintf "Layer.%s: %s is a heuristic layer" op t.label)

(* Hot-swap: install a re-synthesized controller mid-run with bumpless
   transfer from the incumbent. Swapping before the first step makes no
   sense (there is no operating point to transfer), so adapt loops only
   swap between epochs. *)
let swap_controller t controller =
  let c = as_controlled "swap_controller" t in
  Controller.bumpless_from controller ~from:c.controller;
  c.controller <- controller

let with_externals t externals =
  let c = as_controlled "with_externals" t in
  { t with kind = Controlled { c with externals } }

let with_fixed_targets t targets =
  let c = as_controlled "with_fixed_targets" t in
  { t with kind = Controlled { c with targets = Fixed targets } }

let reset t =
  match t.kind with
  | Heuristic h ->
    h.h_epoch <- 0;
    h.h_reset ()
  | Controlled c ->
    Controller.reset c.controller;
    (match c.targets with
    | Optimized o -> Optimizer.reset o
    | Fixed _ -> ());
    c.tracker.ema <- 0.0;
    c.tracker.primed <- false;
    c.epoch_index <- 0;
    c.on_reset ()

let floats_json v =
  Obs.Json.List (Array.to_list (Array.map (fun x -> Obs.Json.Float x) v))

let decisions_metric = Obs.Metrics.counter "runtime.decisions"

let step ?health ?cap t board o =
  match t.kind with
  | Heuristic h ->
    h.h_epoch <- h.h_epoch + 1;
    h.h_act board o;
    (match health with
    | Some hl -> Obs.Health.note_heuristic hl
    | None -> ());
    if Obs.Collector.observing () then begin
      Obs.Metrics.incr decisions_metric;
      Obs.Collector.event ~name:"runtime.decision" ~sim:(Xu3.time board)
        (fun () ->
          [
            ("layer", Obs.Json.String t.label);
            ("epoch", Obs.Json.Int h.h_epoch);
            ("kind", Obs.Json.String "heuristic");
          ])
    end
  | Controlled c ->
    c.epoch_index <- c.epoch_index + 1;
    let objective = exd_update c.tracker o in
    let meas = c.measure o in
    let targets =
      match c.targets with
      | Fixed v -> v
      | Optimized opt ->
        if c.epoch_index mod optimizer_interval = 0 then
          Optimizer.update opt ~objective ~measurements:meas
        else Optimizer.targets opt
    in
    let targets =
      match (cap, c.cap_targets) with
      | Some cap, Some rewrite -> rewrite ~cap targets
      | _ -> targets
    in
    let u =
      Controller.step c.controller ~measurements:meas ~targets
        ~externals:(c.externals board)
    in
    c.actuate board u;
    (match health with
    | Some hl ->
      Obs.Health.note_decision hl
        ~err:(Controller.last_tracking_error c.controller)
        ~saturated:(Controller.last_saturated c.controller)
    | None -> ());
    if Obs.Collector.observing () then begin
      Obs.Metrics.incr decisions_metric;
      Obs.Collector.event ~name:"runtime.decision" ~sim:(Xu3.time board)
        (fun () ->
          (* The pre-quantization normalized command shows which inputs
             the controller drove into saturation this epoch. *)
          let raw = Controller.last_raw_command c.controller in
          let saturated =
            Array.fold_left
              (fun acc x ->
                if Float.abs x >= 1.0 -. 1e-9 then acc + 1 else acc)
              0 raw
          in
          [
            ("layer", Obs.Json.String t.label);
            ("epoch", Obs.Json.Int c.epoch_index);
            ("kind", Obs.Json.String "controlled");
            ("objective_exd", Obs.Json.Float objective);
            ("measurements", floats_json meas);
            ("targets", floats_json targets);
            ("command", floats_json u);
            ("saturated_inputs", Obs.Json.Int saturated);
          ])
    end

module Wire = struct
  type 'a wire = { mutable value : 'a; default : 'a }

  let create default = { value = default; default }
  let set w v = w.value <- v
  let get w = w.value
  let reset w = w.value <- w.default
end
