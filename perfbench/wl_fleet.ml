(* fleet: [Fleet.Sim.run] with 1024 boards under the feedback rack
   policy, the default contended cap (1.6 W per board against a 3.63 W
   uncapped budget), coord heuristics on every board, and a pool of 2
   domains. One step is one whole fleet run: 1024 boards built, then
   stepped to completion in 2 s rack epochs; 60 Ginsts per board keeps
   stepping well above construction. The working set is ~1000 boards
   against the suite's one and the controller math is trivial, so board
   physics and the pool carry the time. The seed is the fleet seed. *)

open Common
open Yukta

let boards = 1024

let jobs = 2

let config seed =
  Fleet.Sim.config ~boards ~policy:Fleet.Rack.Feedback ~scheme:"coord" ~seed ()

let block r = Json.to_string (Fleet.Sim.json r)

(* ------------------------------------------------------------------ *)
(* [Fleet.Sim.run] through its public pieces                           *)
(* ------------------------------------------------------------------ *)

type board_state = { index : int; board : Board.Xu3.t; layers : Layer.t list }

let make_board (cfg : Fleet.Sim.config) info i =
  let board =
    Tracer.span "board.create" (fun () ->
        let workload =
          Board.Workload.synthetic
            ~seed:(Fleet.Seed.derive ~fleet_seed:cfg.Fleet.Sim.seed ~board:i ~stream:0)
            ~ginsts:cfg.Fleet.Sim.ginsts ()
        in
        Board.Xu3.create
          ~seed:(Fleet.Seed.derive ~fleet_seed:cfg.Fleet.Sim.seed ~board:i ~stream:1)
          [ workload ])
  in
  let stack =
    Tracer.span "yukta.stack_build" (fun () ->
        let s = Schemes.stack info in
        Stack.reset s;
        s)
  in
  { index = i; board; layers = Stack.layers stack }

type sample = {
  s_index : int;
  s_epochs : int;
  s_power : float;
  s_progress : float;
  s_finished : bool;
}

let step_board (cfg : Fleet.Sim.config) ~epochs ~cap st =
  Tracer.span "fleet.board_step" (fun () ->
      Board.Xu3.set_power_cap st.board (Some cap);
      let t0 = Board.Xu3.time st.board in
      let e0 = Board.Xu3.energy st.board in
      let stepped = ref 0 in
      for _ = 1 to epochs do
        if not (Board.Xu3.finished st.board) then begin
          let o =
            Tracer.span "board.run_epoch" (fun () ->
                Board.Xu3.run_epoch st.board cfg.Fleet.Sim.epoch)
          in
          step_layers ~cap st.layers st.board o;
          incr stepped
        end
      done;
      let dt = Board.Xu3.time st.board -. t0 in
      {
        s_index = st.index;
        s_epochs = !stepped;
        s_power = (if dt > 0.0 then (Board.Xu3.energy st.board -. e0) /. dt else 0.0);
        s_progress = Board.Xu3.progress st.board;
        s_finished = Board.Xu3.finished st.board;
      })

let traced pool (cfg : Fleet.Sim.config) =
  let info = Schemes.find_exn cfg.Fleet.Sim.scheme in
  let n = cfg.Fleet.Sim.boards in
  let states = Array.init n (make_board cfg info) in
  let rack =
    Fleet.Rack.make ~policy:cfg.Fleet.Sim.policy ~boards:n ~cap:cfg.Fleet.Sim.cap ()
  in
  let power = Array.make n 0.0 in
  let progress = Array.make n 0.0 in
  let active = Array.make n true in
  let pw = Obs.Stats.Welford.create () in
  let board_epochs = ref 0 and rack_epochs = ref 0 and remaining = ref n in
  let violation = ref 0.0 and epoch_power = ref 0.0 in
  let epochs_per_rack =
    max 1
      (int_of_float (Float.round (cfg.Fleet.Sim.rack_epoch /. cfg.Fleet.Sim.epoch)))
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
    && float_of_int !rack_epochs *. cfg.Fleet.Sim.rack_epoch
       < cfg.Fleet.Sim.max_time -. 1e-9
  do
    Tracer.span "fleet.rack_epoch" (fun () ->
        let caps = Tracer.span "fleet.rack_caps" (fun () -> Fleet.Rack.caps rack) in
        let items =
          Array.fold_right
            (fun st acc -> if active.(st.index) then st :: acc else acc)
            states []
        in
        epoch_power := 0.0;
        Tracer.span "parallel.map_reduce" (fun () ->
            let parent = Tracer.current () in
            Parallel.Pool.map_reduce pool
              ~map:(fun st ->
                Tracer.adopt parent (fun () ->
                    step_board cfg ~epochs:epochs_per_rack ~cap:caps.(st.index) st))
              ~init:()
              ~reduce:(fun () s -> fold_sample s)
              items);
        if !epoch_power > cfg.Fleet.Sim.cap then
          violation := !violation +. cfg.Fleet.Sim.rack_epoch;
        Tracer.span "fleet.rack_step" (fun () ->
            Fleet.Rack.step rack ~power ~progress ~active);
        incr rack_epochs)
  done;
  let makespan =
    Array.fold_left (fun m st -> Float.max m (Board.Xu3.time st.board)) 0.0 states
  in
  let energy = Array.fold_left (fun e st -> e +. Board.Xu3.energy st.board) 0.0 states in
  let trips = Array.fold_left (fun t st -> t + Board.Xu3.trip_count st.board) 0 states in
  {
    Fleet.Sim.cfg;
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

(* ------------------------------------------------------------------ *)
(* Golden blocks and the measurement                                   *)
(* ------------------------------------------------------------------ *)

let golden_file dir = Filename.concat dir "fleet.json"

let write_golden dir seeds =
  Parallel.Pool.with_pool ~jobs (fun pool ->
      write_json (golden_file dir)
        (Json.Obj
           (List.map
              (fun seed ->
                (string_of_int seed, Json.String (block (Fleet.Sim.run ~pool (config seed)))))
              seeds)))

type state = {
  pool : Parallel.Pool.t;
  cfg : Fleet.Sim.config;
  golden : string option;
}

let setup ctx =
  load_designs ();
  let golden =
    Option.bind
      (Json.member (string_of_int ctx.seed) (read_json (golden_file ctx.golden)))
      Json.to_string_opt
  in
  { pool = Parallel.Pool.create ~jobs; cfg = config ctx.seed; golden }

let run ctx st =
  let g = gate () in
  (* A fleet run takes ~0.5 s: one slice each. *)
  let slices = Slices.create ~slice_s:0.0 () in
  let trips = ref 0 in
  let untraced_s = ref 0.0 and traced_s = ref 0.0 in
  (* Without a golden block for this seed, every run must at least
     repeat the first one. *)
  let reference = ref st.golden in
  let deadline = now () +. ctx.seconds in
  let i = ref 0 in
  while now () < deadline do
    let c0 = now () in
    let r = Fleet.Sim.run ~pool:st.pool st.cfg in
    let dt = now () -. c0 in
    Slices.add slices ~latency:dt ~epochs:r.Fleet.Sim.board_epochs ~points:r.Fleet.Sim.completed;
    let b = block r in
    let expected = match !reference with Some e -> e | None -> b in
    reference := Some expected;
    attempt g (String.equal b expected) (fun () ->
        Printf.sprintf "fleet seed %d: result block differs from the reference" ctx.seed);
    if ctx.trace then begin
      Tracer.set_run !i;
      let c1 = now () in
      let rt = Tracer.span "unit.fleet" (fun () -> traced st.pool st.cfg) in
      traced_s := !traced_s +. (now () -. c1);
      untraced_s := !untraced_s +. dt;
      trips := !trips + rt.Fleet.Sim.trips;
      attempt g (String.equal (block rt) b) (fun () ->
          Printf.sprintf "fleet seed %d: traced run differs from untraced" ctx.seed)
    end;
    incr i
  done;
  let peak_rss_mb = peak_rss_mb () in
  Parallel.Pool.shutdown st.pool;
  let busy =
    let map_reduce = (Tracer.stats "parallel.map_reduce").Tracer.total_s in
    if map_reduce > 0.0 then
      (Tracer.stats "fleet.board_step").Tracer.total_s /. (float_of_int jobs *. map_reduce)
    else 0.0
  in
  {
    gate = g;
    rates = slices;
    latencies = slices;
    peak_rss_mb;
    untraced_s = !untraced_s;
    traced_s = !traced_s;
    extras = [ ("board.trips", float_of_int !trips); ("parallel.busy_frac", busy) ];
    env =
      [
        ("boards", Json.Int boards);
        ("pool", Json.Int jobs);
        ("connections", Json.Int 0);
        ("golden", Json.Bool (st.golden <> None));
      ];
  }
