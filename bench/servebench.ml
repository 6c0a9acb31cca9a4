(* The serving harness: a real Serve.Server on a loopback TCP socket,
   many concurrent NDJSON sessions pumped from this process, plus an
   in-process adaptive-vs-frozen scenario under an injected plant
   drift.

     dune exec bench/main.exe -- serve                 -- 8 sessions
     dune exec bench/main.exe -- serve --smoke --json OUT
     dune exec bench/main.exe -- serve --sessions 16 --requests 20

   Headline numbers: aggregate streamed frames per wall second across
   all sessions, p50/p99 step-request latency, the detection-to-swap
   latency of the adaptive scenario, and adaptive vs frozen E x D
   under the drift. The adaptive block depends on wall-clock timing
   (the background synthesis races the paced run), so unlike the other
   bench documents it is not byte-reproducible; the frozen numbers
   are. Schema yukta.bench-serve/v1, documented in BENCHMARKS.md. *)

module Json = Obs.Json

(* ------------------------------------------------------------------ *)
(* Throughput / latency: concurrent sessions against a live server     *)
(* ------------------------------------------------------------------ *)

type client_phase =
  | Greeting
  | Configuring
  | Stepping
  | Closing
  | Finished

type client = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable partial : string;
  mutable phase : client_phase;
  mutable outstanding : bool; (* A step request awaits its last frame. *)
  mutable sent_at : float;
  mutable frames_req : int; (* Frames received for the current request. *)
  mutable reqs_left : int;
  mutable run_done : bool;
  mutable frames : int; (* Total frames over the client lifetime. *)
  mutable latencies : float list;
}

let obj fields = Json.to_string (Json.Obj fields)

let send c line =
  let line = line ^ "\n" in
  let n = String.length line in
  let sent = ref 0 in
  while !sent < n do
    match Unix.write_substring c.fd line !sent (n - !sent) with
    | k -> sent := !sent + k
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      ignore (Unix.select [] [ c.fd ] [] 0.05)
  done

let send_step c ~chunk =
  send c (obj [ ("type", Json.String "step"); ("count", Json.Int chunk) ]);
  c.outstanding <- true;
  c.sent_at <- Obs.Collector.now ();
  c.frames_req <- 0

let handle_line c ~scheme ~chunk line =
  let json = try Some (Json.of_string line) with Json.Parse_error _ -> None in
  let typ =
    match json with
    | Some j -> (
      match Option.bind (Json.member "type" j) Json.to_string_opt with
      | Some t -> t
      | None -> "?")
    | None -> "?"
  in
  match (c.phase, typ) with
  | Greeting, "welcome" ->
    c.phase <- Configuring;
    send c
      (obj
         [
           ("type", Json.String "configure");
           ("scheme", Json.String scheme);
           ("app", Json.String "blackscholes");
           ("adapt", Json.Bool false);
         ])
  | Configuring, "configured" ->
    c.phase <- Stepping;
    send_step c ~chunk
  | Stepping, "frame" ->
    c.frames <- c.frames + 1;
    c.frames_req <- c.frames_req + 1;
    let done_ =
      match json with
      | Some j -> Json.member "done" j = Some (Json.Bool true)
      | None -> false
    in
    if done_ then c.run_done <- true;
    if c.frames_req >= chunk || done_ then begin
      c.outstanding <- false;
      c.latencies <- (Obs.Collector.now () -. c.sent_at) :: c.latencies;
      c.reqs_left <- c.reqs_left - 1;
      if c.reqs_left > 0 && not c.run_done then send_step c ~chunk
      else begin
        c.phase <- Closing;
        send c (obj [ ("type", Json.String "close") ])
      end
    end
  | Stepping, "end" ->
    (* The run finished under an earlier request's epoch count. *)
    c.outstanding <- false;
    c.run_done <- true;
    c.phase <- Closing;
    send c (obj [ ("type", Json.String "close") ])
  | Stepping, "busy" -> send_step c ~chunk
  | _, "closed" -> c.phase <- Finished
  | _, "error" ->
    prerr_endline ("bench serve: server error: " ^ line);
    c.phase <- Finished
  | _ -> ()

let pump c ~scheme ~chunk =
  let bytes = Bytes.create 8192 in
  let rec read_all () =
    match Unix.read c.fd bytes 0 8192 with
    | 0 -> c.phase <- Finished (* Server went away. *)
    | n ->
      Buffer.add_subbytes c.buf bytes 0 n;
      read_all ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  read_all ();
  let data = c.partial ^ Buffer.contents c.buf in
  Buffer.clear c.buf;
  let parts = String.split_on_char '\n' data in
  let rec consume = function
    | [] -> c.partial <- ""
    | [ tail ] -> c.partial <- tail
    | line :: rest ->
      if line <> "" then handle_line c ~scheme ~chunk line;
      consume rest
  in
  consume parts

let run_throughput ~sessions ~requests ~chunk ~scheme =
  let server = Serve.Server.create ~step_budget:512 (Serve.Server.Tcp ("", 0)) in
  let port = Option.get (Serve.Server.port server) in
  let connect () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.set_nonblock fd;
    {
      fd;
      buf = Buffer.create 4096;
      partial = "";
      phase = Greeting;
      outstanding = false;
      sent_at = 0.0;
      frames_req = 0;
      reqs_left = requests;
      run_done = false;
      frames = 0;
      latencies = [];
    }
  in
  let clients = List.init sessions (fun _ -> connect ()) in
  List.iter
    (fun c ->
      send c
        (obj [ ("type", Json.String "hello"); ("client", Json.String "bench") ]))
    clients;
  let t0 = Obs.Collector.now () in
  let deadline = t0 +. 120.0 in
  while
    List.exists (fun c -> c.phase <> Finished) clients
    && Obs.Collector.now () < deadline
  do
    Serve.Server.iterate ~timeout:0.002 server;
    List.iter
      (fun c -> if c.phase <> Finished then pump c ~scheme ~chunk)
      clients
  done;
  let wall = Obs.Collector.now () -. t0 in
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) clients;
  Serve.Server.stop server;
  Serve.Server.iterate ~timeout:0.0 server;
  (* Shutdown: run with stop already requested closes everything. *)
  Serve.Server.run server;
  let frames = List.fold_left (fun a c -> a + c.frames) 0 clients in
  let latencies =
    List.concat_map (fun c -> c.latencies) clients |> Array.of_list
  in
  Array.sort compare latencies;
  (frames, wall, latencies)

(* ------------------------------------------------------------------ *)
(* Adaptive vs frozen under drift (in-process, same path as a session) *)
(* ------------------------------------------------------------------ *)

type arm = {
  epochs : int;
  completed : bool;
  exd : float;
  energy : float;
  trips : int;
}

let injector ~severity () =
  Fault.Injector.hooks
    (Fault.Injector.make
       [
         Fault.Spec.make ~start:20.0 ~duration:Float.infinity
           (Fault.Spec.Power_gain_drift severity);
       ])

let arm_of_stepper s n =
  let m = Board.Xu3.metrics (Yukta.Stack.board s) in
  {
    epochs = n;
    completed = Yukta.Stack.finished s;
    exd = m.Board.Xu3.energy_delay;
    energy = m.Board.Xu3.total_energy;
    trips = m.Board.Xu3.trips;
  }

let max_arm_epochs = 30_000

let run_frozen ~scheme ~severity =
  let stack = Yukta.Schemes.stack (Yukta.Schemes.find_exn scheme) in
  let s =
    Yukta.Stack.stepper ~injector:(injector ~severity ()) stack
      [ Board.Workload.by_name "blackscholes" ]
  in
  let n = ref 0 in
  while Yukta.Stack.step_epoch s <> None && !n < max_arm_epochs do
    incr n
  done;
  arm_of_stepper s !n

(* The adaptive arm is paced (wall sleep per epoch) until the swap
   lands: the background synthesis needs wall seconds, and an unpaced
   simulation finishes before any redesign could. After the swap the
   rest free-runs — pacing does not affect simulated quantities. *)
let run_adaptive ~scheme ~severity ~pace_s =
  let stack = Yukta.Schemes.stack (Yukta.Schemes.find_exn scheme) in
  let s =
    Yukta.Stack.stepper ~injector:(injector ~severity ()) stack
      [ Board.Workload.by_name "blackscholes" ]
  in
  let engine =
    match Serve.Adapt.for_stack (Yukta.Stack.stack s) with
    | Some e -> e
    | None -> Cli.fail "scheme %s has no adaptable hw layer" scheme
  in
  let board = Yukta.Stack.board s in
  let n = ref 0 in
  let stop = ref false in
  let swap = ref None in
  while (not !stop) && !n < max_arm_epochs do
    Serve.Adapt.pre_step engine board;
    match Yukta.Stack.step_epoch s with
    | None -> stop := true
    | Some o ->
      incr n;
      List.iter
        (fun ev ->
          match ev with
          | Serve.Adapt.Swapped { epoch; latency_epochs; latency_s; mu_peak }
            ->
            swap := Some (epoch, latency_epochs, latency_s, mu_peak)
          | Serve.Adapt.Drift_detected _ | Serve.Adapt.Synthesis_failed _ ->
            ())
        (Serve.Adapt.observe engine ~epoch:!n board o);
      if Serve.Adapt.swaps engine = 0 then Unix.sleepf pace_s
  done;
  Serve.Adapt.finish engine;
  (arm_of_stepper s !n, !swap)

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let arm_json (a : arm) =
  Json.Obj
    [
      ("epochs", Json.Int a.epochs);
      ("completed", Json.Bool a.completed);
      ("exd", Json.Float a.exd);
      ("energy", Json.Float a.energy);
      ("trips", Json.Int a.trips);
    ]

let main args =
  let sessions = ref 0 in
  let requests = ref 0 in
  let chunk = ref 25 in
  let scheme = ref "hw-ssv" in
  let severity = ref 1.5 in
  let pace_ms = ref 25 in
  Cli.parse "bench serve" "usage: bench serve [FLAG...]"
    [
      Cli.smoke_spec " 2 sessions x 4 step requests";
      Cli.json_spec;
      Cli.count "--sessions" (( := ) sessions) "N Sessions (default 8)";
      Cli.count "--requests" (( := ) requests)
        "N Step requests per session (default 12)";
      Cli.count "--chunk" (( := ) chunk) "N Epochs per request (default 25)";
      Cli.scheme_spec scheme "S Session scheme (default hw-ssv)";
      Cli.positive "--severity" (( := ) severity)
        "F Power-gain drift of the adaptive scenario (default 1.5)";
      Cli.count "--pace" (( := ) pace_ms)
        "MS Wall pause per epoch until the swap lands (default 25)";
    ]
    args;
  let smoke = !Cli.smoke in
  let sessions = if !sessions > 0 then !sessions else if smoke then 2 else 8 in
  let requests = if !requests > 0 then !requests else if smoke then 4 else 12 in
  Printf.printf "serve: %d sessions x %d step requests x %d epochs, %s\n%!"
    sessions requests !chunk !scheme;
  let t0 = Obs.Collector.now () in
  let frames, wall, latencies =
    run_throughput ~sessions ~requests ~chunk:!chunk ~scheme:!scheme
  in
  let p50 = Micro.percentile latencies 0.50 *. 1000.0 in
  let p99 = Micro.percentile latencies 0.99 *. 1000.0 in
  let throughput = if wall > 0.0 then float_of_int frames /. wall else 0.0 in
  Printf.printf
    "  %d frames in %.2f s  (%.0f frames/s)  step latency p50 %.2f ms  p99 \
     %.2f ms\n%!"
    frames wall throughput p50 p99;
  Printf.printf "adaptive vs frozen: power_gain %.1f on %s (pace %d ms)\n%!"
    !severity !scheme !pace_ms;
  let frozen = run_frozen ~scheme:!scheme ~severity:!severity in
  Printf.printf "  frozen:   %5d epochs  ExD %12.1f  trips %d\n%!"
    frozen.epochs frozen.exd frozen.trips;
  let adaptive, swap =
    run_adaptive ~scheme:!scheme ~severity:!severity
      ~pace_s:(float_of_int !pace_ms /. 1000.0)
  in
  Printf.printf "  adaptive: %5d epochs  ExD %12.1f  trips %d\n%!"
    adaptive.epochs adaptive.exd adaptive.trips;
  (match swap with
  | Some (epoch, lat_e, lat_s, mu) ->
    Printf.printf
      "  swap at epoch %d: drift->swap latency %d epochs (%.1f sim s), mu \
       %.2f\n\
       %!"
      epoch lat_e lat_s mu
  | None -> Printf.printf "  no swap landed (run ended first)\n%!");
  if frozen.exd > 0.0 then
    Printf.printf "# adaptive ExD x%.3f vs frozen\n%!"
      (adaptive.exd /. frozen.exd);
  Cli.write_json
    (Json.Obj
       [
         ("schema", Json.String "yukta.bench-serve/v1");
         ("smoke", Json.Bool smoke);
         ( "serve",
           Json.Obj
             [
               ("sessions", Json.Int sessions);
               ("requests_per_session", Json.Int requests);
               ("epochs_per_request", Json.Int !chunk);
               ("scheme", Json.String !scheme);
               ("frames", Json.Int frames);
             ] );
         ( "adaptive",
           Json.Obj
             [
               ("drift_kind", Json.String "power_gain");
               ("drift_severity", Json.Float !severity);
               ("frozen", arm_json frozen);
               ("adaptive", arm_json adaptive);
               ( "exd_ratio",
                 Json.Float
                   (if frozen.exd > 0.0 then adaptive.exd /. frozen.exd
                    else 0.0) );
               ( "swap",
                 match swap with
                 | None -> Json.Null
                 | Some (epoch, lat_e, lat_s, mu) ->
                   Json.Obj
                     [
                       ("epoch", Json.Int epoch);
                       ("latency_epochs", Json.Int lat_e);
                       ("latency_s", Json.Float lat_s);
                       ("mu_peak", Json.Float mu);
                     ] );
             ] );
         ( "bench",
           Json.Obj
             [
               ("wall_s", Json.Float (Obs.Collector.now () -. t0));
               ("throughput_frames_per_s", Json.Float throughput);
               ("step_latency_ms_p50", Json.Float p50);
               ("step_latency_ms_p99", Json.Float p99);
             ] );
       ])
