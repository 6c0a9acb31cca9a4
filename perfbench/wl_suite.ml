(* suite: the paper's own evaluation. The Figure 9 apps and the Figure 14
   mixes, each under coord, decoupled, hw-ssv and yukta, run serially
   through [Experiment.run_suite] one cell at a time (so each cell's
   latency is a step sample), repeated until the window closes. One
   board is live at a time; half the cells step SSV controllers. The
   suite grid is fixed: the seed only permutes the cell order. *)

open Common
open Yukta

let schemes = [ "coord"; "decoupled"; "hw-ssv"; "yukta" ]

type cell = (string * Board.Workload.t list) * Schemes.info

let cells () : cell list =
  List.concat_map
    (fun entry -> List.map (fun k -> (entry, Schemes.find_exn k)) schemes)
    (Experiment.suite_entries () @ Experiment.mix_entries ())

let key (((app, _), info) : cell) = app ^ "/" ^ info.Schemes.key

type result = { exd : float; time : float; trips : int; epochs : int }

let same a b =
  same_float a.exd b.exd && same_float a.time b.time && a.trips = b.trips
  && a.epochs = b.epochs

let of_metrics (m : Board.Xu3.metrics) epochs =
  {
    exd = m.Board.Xu3.energy_delay;
    time = m.Board.Xu3.execution_time;
    trips = m.Board.Xu3.trips;
    epochs;
  }

let untraced ((entry, info) : cell) =
  match Experiment.run_suite ~schemes:[ info ] [ entry ] with
  | [ { Experiment.raw = [ (_, r) ]; _ } ] ->
    of_metrics r.Experiment.metrics (Obs.Health.epochs r.Experiment.health)
  | _ -> failwith "suite: run_suite returned an unexpected grid"

(* [Experiment.run_app] is [Stack.run] on a fresh stack: drive it
   through the traced stepping loop. *)
let traced ((entry, info) : cell) =
  let stack = Tracer.span "yukta.stack_build" (fun () -> Schemes.stack info) in
  let m, epochs = traced_stack_run stack (snd entry) in
  of_metrics m epochs

let to_json r =
  Json.Obj
    [
      ("exd", hex r.exd);
      ("time", hex r.time);
      ("trips", Json.Int r.trips);
      ("epochs", Json.Int r.epochs);
    ]

let of_json j =
  match (float_field j "exd", float_field j "time", int_field j "trips", int_field j "epochs") with
  | Some exd, Some time, Some trips, Some epochs -> Some { exd; time; trips; epochs }
  | _ -> None

let golden_file dir = Filename.concat dir "suite.json"

let write_golden dir =
  write_json (golden_file dir)
    (Json.Obj (List.map (fun c -> (key c, to_json (untraced c))) (cells ())))

type state = { order : cell array; golden : Json.t }

let setup ctx =
  load_designs ();
  let order = Array.of_list (cells ()) in
  shuffle (Random.State.make [| ctx.seed |]) order;
  { order; golden = read_json (golden_file ctx.golden) }

let run ctx st =
  let g = gate () in
  (* ~50 cells a slice: each slice's own 99th percentile is its slowest
     cell or close to it. Over the middle half pooled, the 99th
     percentile moved half as much again as the rates did when the host
     slowed (0.30 against 0.18 over ten runs). *)
  let slices = Slices.create ~own_p99:true () in
  let trips = ref 0 in
  let untraced_s = ref 0.0 and traced_s = ref 0.0 in
  let n = Array.length st.order in
  let deadline = now () +. ctx.seconds in
  let i = ref 0 in
  while now () < deadline do
    let cell = st.order.(!i mod n) in
    let c0 = now () in
    let r = untraced cell in
    let dt = now () -. c0 in
    Slices.add slices ~latency:dt ~epochs:r.epochs ~points:1;
    let expected = Option.bind (Json.member (key cell) st.golden) of_json in
    attempt g
      (match expected with Some e -> same e r | None -> false)
      (fun () -> Printf.sprintf "suite cell %s differs from the golden" (key cell));
    if ctx.trace then begin
      Tracer.set_run !i;
      let c1 = now () in
      let rt = Tracer.span "unit.suite" (fun () -> traced cell) in
      traced_s := !traced_s +. (now () -. c1);
      untraced_s := !untraced_s +. dt;
      trips := !trips + rt.trips;
      attempt g (same r rt) (fun () ->
          Printf.sprintf "suite cell %s: traced run differs from untraced" (key cell))
    end;
    incr i
  done;
  let peak_rss_mb = peak_rss_mb () in
  {
    gate = g;
    rates = slices;
    latencies = slices;
    peak_rss_mb;
    untraced_s = !untraced_s;
    traced_s = !traced_s;
    extras = [ ("board.trips", float_of_int !trips) ];
    env = [ ("cells", Json.Int n); ("pool", Json.Int 1); ("connections", Json.Int 0) ];
  }
