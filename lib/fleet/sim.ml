(* The streaming fleet driver: persistent per-board state stepped in
   rack epochs, fanned out over the domain pool, folded back into
   mergeable accumulators in board order. No per-board result list is
   ever materialized — a 1024-board run holds the boards themselves
   plus O(window) in-flight samples. *)

open Board
open Yukta

type config = {
  boards : int;
  cap : float;              (* Shared rack budget, watts. *)
  policy : Rack.policy;
  scheme : string;          (* Scheme key for every board's stack. *)
  seed : int;               (* Fleet seed; per-board seeds derive. *)
  epoch : float;            (* Board control epoch, seconds. *)
  rack_epoch : float;       (* Rack decision period, seconds. *)
  max_time : float;         (* Simulated horizon, seconds. *)
  ginsts : float;           (* Per-board workload size, Ginsts. *)
}

let config ?(cap_per_board = 1.6) ?(policy = Rack.Feedback) ?(scheme = "coord")
    ?(seed = 42) ?(max_time = 240.0) ?(ginsts = 60.0) ~boards () =
  if boards < 1 then invalid_arg "Sim.config: boards must be >= 1";
  if not (cap_per_board > 0.0) then
    invalid_arg "Sim.config: cap_per_board must be positive";
  {
    boards;
    cap = cap_per_board *. float_of_int boards;
    policy;
    scheme;
    seed;
    epoch = Stack.default_epoch;
    rack_epoch = 2.0;
    max_time;
    ginsts;
  }

type result = {
  cfg : config;
  rack_epochs : int;
  board_epochs : int;       (* Total control epochs stepped, fleet-wide. *)
  completed : int;
  makespan : float;         (* Latest board clock at the end, seconds. *)
  energy : float;           (* Fleet joules. *)
  exd : float;              (* energy * makespan. *)
  cap_violation_s : float;  (* Rack-epoch time with measured total > cap. *)
  trips : int;              (* Emergency trips, fleet-wide. *)
  power : Obs.Stats.Welford.t;  (* Per-board-rack-epoch average power. *)
}

(* Persistent per-board state; owned by exactly one task per rack epoch. *)
type board_state = {
  index : int;
  board : Xu3.t;
  stack : Stack.t;
}

(* What one board reports back from one rack epoch — the only value that
   crosses domains, folded into accumulators immediately. *)
type sample = {
  s_index : int;
  s_epochs : int;
  s_power : float;          (* Average watts over the stepped span. *)
  s_progress : float;
  s_finished : bool;
}

let make_board cfg info i =
  let workload =
    Workload.synthetic
      ~seed:(Seed.derive ~fleet_seed:cfg.seed ~board:i ~stream:0)
      ~ginsts:cfg.ginsts ()
  in
  let board =
    Xu3.create
      ~seed:(Seed.derive ~fleet_seed:cfg.seed ~board:i ~stream:1)
      [ workload ]
  in
  let stack = Schemes.stack info in
  Stack.reset stack;
  { index = i; board; stack }

let step_board cfg ~epochs ~cap st =
  Xu3.set_power_cap st.board (Some cap);
  let t0 = Xu3.time st.board in
  let e0 = Xu3.energy st.board in
  let stepped = ref 0 in
  for _ = 1 to epochs do
    if not (Xu3.finished st.board) then begin
      let o = Xu3.run_epoch st.board cfg.epoch in
      Stack.step ~cap st.stack st.board o;
      incr stepped
    end
  done;
  let dt = Xu3.time st.board -. t0 in
  {
    s_index = st.index;
    s_epochs = !stepped;
    s_power =
      (if dt > 0.0 then (Xu3.energy st.board -. e0) /. dt else 0.0);
    s_progress = Xu3.progress st.board;
    s_finished = Xu3.finished st.board;
  }

let run ?(pool = Parallel.Pool.create ~jobs:1) cfg =
  let info = Schemes.find_exn cfg.scheme in
  let n = cfg.boards in
  (* Build every board before fan-out: stack construction forces the
     scheme's memoized designs exactly once (the single-force rule). *)
  let states = Array.init n (make_board cfg info) in
  let rack = Rack.make ~policy:cfg.policy ~boards:n ~cap:cfg.cap () in
  let power = Array.make n 0.0 in
  let progress = Array.make n 0.0 in
  let active = Array.make n true in
  let pw = Obs.Stats.Welford.create () in
  let board_epochs = ref 0 in
  let rack_epochs = ref 0 in
  let remaining = ref n in
  let violation = ref 0.0 in
  let epoch_power = ref 0.0 in
  let epochs_per_rack =
    max 1 (int_of_float (Float.round (cfg.rack_epoch /. cfg.epoch)))
  in
  let fold_sample s =
    let i = s.s_index in
    power.(i) <- s.s_power;
    progress.(i) <- s.s_progress;
    board_epochs := !board_epochs + s.s_epochs;
    if s.s_epochs > 0 then begin
      Obs.Stats.Welford.add pw s.s_power;
      epoch_power := !epoch_power +. s.s_power
    end;
    if s.s_finished && active.(i) then begin
      active.(i) <- false;
      decr remaining
    end
  in
  while
    !remaining > 0
    && (float_of_int !rack_epochs *. cfg.rack_epoch)
       < cfg.max_time -. 1e-9
  do
    let caps = Rack.caps rack in
    (* Only still-running boards are stepped; the item list shrinks as
       the fleet drains, but in index order, so the fold stays
       deterministic. *)
    let items =
      Array.fold_right
        (fun st acc -> if active.(st.index) then st :: acc else acc)
        states []
    in
    epoch_power := 0.0;
    Parallel.Pool.map_reduce pool
      ~map:(fun st ->
        step_board cfg ~epochs:epochs_per_rack ~cap:caps.(st.index) st)
      ~init:()
      ~reduce:(fun () s -> fold_sample s)
      items;
    if !epoch_power > cfg.cap then violation := !violation +. cfg.rack_epoch;
    Rack.step rack ~power ~progress ~active;
    incr rack_epochs
  done;
  let makespan =
    Array.fold_left (fun m st -> Float.max m (Xu3.time st.board)) 0.0 states
  in
  let energy =
    Array.fold_left (fun e st -> e +. Xu3.energy st.board) 0.0 states
  in
  let trips =
    Array.fold_left (fun t st -> t + Xu3.trip_count st.board) 0 states
  in
  {
    cfg;
    rack_epochs = !rack_epochs;
    board_epochs = !board_epochs;
    completed = n - !remaining;
    makespan;
    energy;
    exd = energy *. makespan;
    cap_violation_s = !violation;
    trips;
    power = pw;
  }

let json r =
  let c = r.cfg in
  Obs.Json.Obj
    [
      ("policy", Obs.Json.String (Rack.policy_name c.policy));
      ("boards", Obs.Json.Int c.boards);
      ("cap_w", Obs.Json.Float c.cap);
      ("scheme", Obs.Json.String c.scheme);
      ("seed", Obs.Json.Int c.seed);
      ("epoch_s", Obs.Json.Float c.epoch);
      ("rack_epoch_s", Obs.Json.Float c.rack_epoch);
      ("max_time_s", Obs.Json.Float c.max_time);
      ("ginsts", Obs.Json.Float c.ginsts);
      ("rack_epochs", Obs.Json.Int r.rack_epochs);
      ("board_epochs", Obs.Json.Int r.board_epochs);
      ("completed", Obs.Json.Int r.completed);
      ("makespan_s", Obs.Json.Float r.makespan);
      ("energy_j", Obs.Json.Float r.energy);
      ("exd_js", Obs.Json.Float r.exd);
      ("cap_violation_s", Obs.Json.Float r.cap_violation_s);
      ("trips", Obs.Json.Int r.trips);
      ("board_power_w", Obs.Stats.Welford.to_json r.power);
    ]
