(* The streaming fleet driver: persistent per-board state stepped in
   rack epochs. Each rack epoch splits the still-running boards into
   contiguous ranges, one per in-flight slot of the domain pool, so a
   rack epoch is one wave of tasks. A task steps its range in board
   order and writes each board's outcome into per-board arrays shared
   with the caller, which folds each range in board order into mergeable
   accumulators. No per-board result is ever allocated, and results and
   events are byte-identical at any job count. *)

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
  board : Xu3.t;
  stack : Stack.t;
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
  { board; stack }

let run ?(pool = Parallel.Pool.create ~jobs:1) cfg =
  let info = Schemes.find_exn cfg.scheme in
  let n = cfg.boards in
  (* Build every board before fan-out: stack construction forces the
     scheme's memoized designs exactly once (the single-force rule). *)
  let states = Array.init n (make_board cfg info) in
  let rack = Rack.make ~policy:cfg.policy ~boards:n ~cap:cfg.cap () in
  (* Board i's outcome of the latest rack epoch, written by the one task
     that stepped it and read by the caller when that task's range
     folds. [power] and [progress] are also the rack's measurements. *)
  let stepped = Array.make n 0 in
  let power = Array.make n 0.0 in
  let progress = Array.make n 0.0 in
  let finished = Array.make n false in
  let active = Array.make n true in
  (* The still-running boards in index order: running.(0 .. live - 1). *)
  let running = Array.init n Fun.id in
  let live = ref n in
  let pw = Obs.Stats.Welford.create () in
  let board_epochs = ref 0 in
  let rack_epochs = ref 0 in
  let violation = ref 0.0 in
  let epoch_power = ref 0.0 in
  let epochs_per_rack =
    max 1 (int_of_float (Float.round (cfg.rack_epoch /. cfg.epoch)))
  in
  let step_board ~cap i =
    let b = states.(i).board in
    Xu3.set_power_cap b (Some cap);
    let t0 = Xu3.time b in
    let e0 = Xu3.energy b in
    let k = ref 0 in
    while !k < epochs_per_rack && not (Xu3.finished b) do
      let o = Xu3.run_epoch b cfg.epoch in
      Stack.step ~cap states.(i).stack b o;
      incr k
    done;
    let dt = Xu3.time b -. t0 in
    stepped.(i) <- !k;
    power.(i) <- (if dt > 0.0 then (Xu3.energy b -. e0) /. dt else 0.0);
    progress.(i) <- Xu3.progress b;
    finished.(i) <- Xu3.finished b
  in
  let fold_board i =
    board_epochs := !board_epochs + stepped.(i);
    if stepped.(i) > 0 then begin
      Obs.Stats.Welford.add pw power.(i);
      epoch_power := !epoch_power +. power.(i)
    end;
    if finished.(i) then active.(i) <- false
  in
  let each (lo, hi) f =
    for j = lo to hi - 1 do
      f running.(j)
    done
  in
  while
    !live > 0
    && (float_of_int !rack_epochs *. cfg.rack_epoch)
       < cfg.max_time -. 1e-9
  do
    let caps = Rack.caps rack in
    let m = !live in
    let k = min m (Parallel.Pool.window pool) in
    epoch_power := 0.0;
    Parallel.Pool.map_reduce pool
      ~map:(fun r ->
        each r (fun i -> step_board ~cap:caps.(i) i);
        r)
      ~init:()
      ~reduce:(fun () r -> each r fold_board)
      (List.init k (fun r -> (r * m / k, (r + 1) * m / k)));
    (* Drop the boards that finished, keeping index order. *)
    live := 0;
    for j = 0 to m - 1 do
      if active.(running.(j)) then begin
        running.(!live) <- running.(j);
        incr live
      end
    done;
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
    completed = n - !live;
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
