(* serve: a live [Serve.Server] on loopback, in the same thread as one
   closed-loop client. A board needs each decision before it actuates,
   so the client sends its next one-epoch [step] only once the previous
   frame is back. Each session runs hw-ssv or yukta with adaptation off
   on one app; when the run ends the client closes, reconnects and
   configures the next pair of the seeded schedule. Per-request parse,
   encode, select and syscall cost dominates, with [configure] beside
   [step]. This is the only workload that enters lib/serve.

   One client, not two: a request's latency is one loop turn, and an
   epoch's cost already has two modes (~38 and ~58 us here), with the
   median on the slower one. With two clients a turn steps one or both
   sessions, the modes multiply, and the median fell in the gap between
   them: it moved by up to 40% from run to run (0.078 against 0.109 ms
   in consecutive runs), whatever think time the clients took. *)

open Common
open Yukta

let connections = 1

let step_budget = 256

let schemes = [| "hw-ssv"; "yukta" |]

let apps =
  Array.of_list
    (List.map (fun w -> w.Board.Workload.name) Board.Workload.evaluation_suite
    @ List.map fst Board.Workload.mixes)

(* An app name resolves as a session resolves it: a mix, else one
   workload. *)
let workloads_of_app app =
  match List.assoc_opt app Board.Workload.mixes with
  | Some ws -> ws
  | None -> [ Board.Workload.by_name app ]

(* ------------------------------------------------------------------ *)
(* Closed-loop clients                                                 *)
(* ------------------------------------------------------------------ *)

type session = {
  scheme : string;
  app : string;
  mutable frames : int;
  mutable digest : Digest.t;
      (* Chained over the frame lines, d' = MD5 (d ^ line), so the cost
         is spread over the frames instead of landing on the session's
         last one. *)
  mutable complete : bool;
}

type phase = Greeting | Configuring | Stepping | Closing | Done

type client = {
  mutable fd : Unix.file_descr;
  mutable phase : phase;
  mutable partial : string;
  mutable session : session;
  mutable sent_at : float;
}

type load = {
  g : gate;
  slices : Slices.t;
      (* 0.1 s slices: a request takes ~0.06 ms, so each slice holds
         enough for its own 99th percentile. *)
  next : unit -> string * string;  (* The seeded (scheme, app) schedule. *)
  mutable sessions : session list;  (* Ended or cut at the deadline. *)
  mutable deadline : float;
}

let obj fields = Json.to_string (Json.Obj fields)

let send fd line =
  let line = line ^ "\n" in
  let n = String.length line in
  let sent = ref 0 in
  while !sent < n do
    match Unix.write_substring fd line !sent (n - !sent) with
    | k -> sent := !sent + k
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      ignore (Unix.select [] [ fd ] [] 0.01)
  done

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.set_nonblock fd;
  fd

let chain d line = Digest.string (d ^ line)

let new_session ld =
  let scheme, app = ld.next () in
  { scheme; app; frames = 0; digest = Digest.string ""; complete = false }

let hello c = send c.fd (obj [ ("type", Json.String "hello"); ("client", Json.String "perfbench") ])

let open_client ld port =
  let c =
    {
      fd = connect port;
      phase = Greeting;
      partial = "";
      session = new_session ld;
      sent_at = 0.0;
    }
  in
  hello c;
  c

let send_step c =
  c.sent_at <- now ();
  send c.fd (obj [ ("type", Json.String "step"); ("count", Json.Int 1) ])

let starts p s = String.starts_with ~prefix:p s

let on_line ld c port line =
  match c.phase with
  | Greeting when starts "{\"type\":\"welcome\"" line ->
    c.phase <- Configuring;
    send c.fd
      (obj
         [
           ("type", Json.String "configure");
           ("scheme", Json.String c.session.scheme);
           ("app", Json.String c.session.app);
           ("adapt", Json.Bool false);
         ])
  | Configuring when starts "{\"type\":\"configured\"" line ->
    c.phase <- Stepping;
    send_step c
  | Stepping when starts "{\"type\":\"frame\"" line ->
    let s = c.session in
    s.frames <- s.frames + 1;
    let ends = String.ends_with ~suffix:"\"done\":true}" line in
    Slices.add ld.slices ~latency:(now () -. c.sent_at) ~epochs:1 ~points:(if ends then 1 else 0);
    s.digest <- chain s.digest line;
    if ends then s.complete <- true;
    if s.complete || now () >= ld.deadline then begin
      ld.sessions <- s :: ld.sessions;
      c.phase <- Closing;
      send c.fd (obj [ ("type", Json.String "close") ])
    end
    else send_step c
  | Closing when starts "{\"type\":\"closed\"" line ->
    Unix.close c.fd;
    if now () < ld.deadline then begin
      c.fd <- connect port;
      c.phase <- Greeting;
      c.partial <- "";
      c.session <- new_session ld;
      hello c
    end
    else c.phase <- Done
  | _ ->
    fail ld.g ~ops:1 ("serve: unexpected response " ^ line);
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    c.phase <- Done

let chunk = Bytes.create 65536

let pump ld c port =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 ->
    fail ld.g ~ops:1 "serve: server closed a connection";
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    c.phase <- Done
  | n ->
    let parts = String.split_on_char '\n' (c.partial ^ Bytes.sub_string chunk 0 n) in
    let rec feed = function
      | [] -> ()
      | [ rest ] -> c.partial <- rest
      | line :: tl ->
        if line <> "" && c.phase <> Done then on_line ld c port line;
        feed tl
    in
    feed parts
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

(* Drive [connections] clients against the server at [port] until the
   window closes and every client has closed; [turn] runs one server
   loop iteration followed by the given client pumps. *)
let drive ld ~port ~seconds ~turn =
  ld.deadline <- now () +. seconds;
  let t0 = now () in
  let clients = List.init connections (fun _ -> open_client ld port) in
  let pump_all () =
    List.iter
      (fun c ->
        if c.phase <> Done then
          Tracer.span "serve.client_io" (fun () -> pump ld c port))
      clients
  in
  while List.exists (fun c -> c.phase <> Done) clients do
    turn pump_all
  done;
  now () -. t0

(* ------------------------------------------------------------------ *)
(* The server loop through its public pieces                           *)
(* ------------------------------------------------------------------ *)

(* [Serve.Server.iterate] rebuilt on [Serve.Session] and [Unix.select],
   step for step: accept, read 4096-byte chunks into the session queue
   (answering backpressure rejections at once), process every session
   under the epoch budget, write what the sockets take, and sweep closed
   and idle connections, with the server's clock reads and its
   per-connection guards. The traced run drives both halves of its
   window through this loop, so its per-layer [serve.*] figures time this
   replica, not [Server.iterate] itself. With tracing on, each line is
   also parsed by [Protocol.request_of_line] on its own (the session
   parses it again) to time the parse and to name a configure's
   processing span; that extra parse is part of the tracing cost. *)

(* [Serve.Server]'s defaults, which the measured server runs with. *)
let idle_timeout = 30.0

let max_line = 65536

type conn = {
  cfd : Unix.file_descr;
  session : Serve.Session.t;
  mutable cpartial : string;
  outbuf : Buffer.t;
  mutable sent : int;
  mutable last_activity : float;
  mutable dropping : bool;
  mutable configure : bool;  (* A configure request is queued. *)
}

type loop = {
  listen : Unix.file_descr;
  lport : int;
  mutable conns : conn list;
  mutable next_id : int;
  mutable requests : int;
  mutable rejects : int;
}

let loop_create () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen fd 16;
  Unix.set_nonblock fd;
  let lport =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> 0
  in
  { listen = fd; lport; conns = []; next_id = 1; requests = 0; rejects = 0 }

let queue_line c l =
  Buffer.add_string c.outbuf l;
  Buffer.add_char c.outbuf '\n'

let drop lp c =
  if List.memq c lp.conns then begin
    lp.conns <- List.filter (fun x -> x != c) lp.conns;
    Serve.Session.finish c.session;
    try Unix.close c.cfd with Unix.Unix_error _ -> ()
  end

let accept_ready lp now =
  match Unix.accept lp.listen with
  | fd, _ ->
    Unix.set_nonblock fd;
    let session = Serve.Session.create ~id:lp.next_id () in
    lp.next_id <- lp.next_id + 1;
    lp.conns <-
      {
        cfd = fd;
        session;
        cpartial = "";
        outbuf = Buffer.create 1024;
        sent = 0;
        last_activity = now;
        dropping = false;
        configure = false;
      }
      :: lp.conns
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

let ingest lp c data =
  c.last_activity <- Unix.gettimeofday ();
  let parts = String.split_on_char '\n' (c.cpartial ^ data) in
  let rec feed = function
    | [] -> ()
    | [ rest ] ->
      if String.length rest > max_line then begin
        c.cpartial <- "";
        queue_line c
          (Serve.Protocol.error ~fatal:true (Printf.sprintf "line exceeds %d bytes" max_line));
        c.dropping <- true
      end
      else c.cpartial <- rest
    | line :: tl ->
      let line =
        if String.length line > 0 && line.[String.length line - 1] = '\r' then
          String.sub line 0 (String.length line - 1)
        else line
      in
      if line <> "" then begin
        lp.requests <- lp.requests + 1;
        if !Tracer.on then begin
          match Tracer.span "serve.parse" (fun () -> Serve.Protocol.request_of_line line) with
          | Ok (Serve.Protocol.Configure _) -> c.configure <- true
          | _ -> ()
        end;
        match Serve.Session.enqueue c.session line with
        | `Accepted -> ()
        | `Rejected response ->
          lp.rejects <- lp.rejects + 1;
          queue_line c response
      end;
      feed tl
  in
  feed parts

let read_ready lp c =
  let chunk = Bytes.create 4096 in
  match Unix.read c.cfd chunk 0 (Bytes.length chunk) with
  | 0 -> drop lp c
  | n -> ingest lp c (Bytes.sub_string chunk 0 n)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> drop lp c

let write_ready lp c =
  let data = Buffer.to_bytes c.outbuf in
  let len = Bytes.length data - c.sent in
  if len > 0 then
    match Unix.write c.cfd data c.sent len with
    | n ->
      c.sent <- c.sent + n;
      c.last_activity <- Unix.gettimeofday ();
      if c.sent = Bytes.length data then begin
        Buffer.clear c.outbuf;
        c.sent <- 0
      end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> drop lp c

let pending_out c = Buffer.length c.outbuf - c.sent > 0

let process lp c =
  if not c.dropping then
    try
      let lines =
        if Serve.Session.pending c.session > 0 then begin
          let name = if c.configure then "serve.configure" else "serve.session_process" in
          c.configure <- false;
          Tracer.span name (fun () -> Serve.Session.process ~budget:step_budget c.session)
        end
        else Serve.Session.process ~budget:step_budget c.session
      in
      if lines <> [] then begin
        List.iter (queue_line c) lines;
        c.last_activity <- Unix.gettimeofday ()
      end
    with _ -> drop lp c

let loop_iterate lp =
  Tracer.span "serve.iterate" (fun () ->
      let now = Unix.gettimeofday () in
      let reads = lp.listen :: List.map (fun c -> c.cfd) lp.conns in
      let writes = List.filter_map (fun c -> if pending_out c then Some c.cfd else None) lp.conns in
      let readable, writable, _ =
        try Unix.select reads writes [] 0.0
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      if List.mem lp.listen readable then accept_ready lp now;
      List.iter
        (fun c ->
          if List.mem c.cfd readable && not c.dropping then
            try read_ready lp c with _ -> drop lp c)
        lp.conns;
      List.iter (process lp) lp.conns;
      List.iter (fun c -> if List.mem c.cfd writable then write_ready lp c) lp.conns;
      let now = Unix.gettimeofday () in
      List.iter
        (fun c ->
          if pending_out c then ()
          else if c.dropping || Serve.Session.closed c.session then drop lp c
          else if Serve.Session.pending c.session = 0 && now -. c.last_activity > idle_timeout
          then begin
            queue_line c (Serve.Protocol.error ~fatal:true "idle timeout");
            c.dropping <- true
          end)
        lp.conns)

(* ------------------------------------------------------------------ *)
(* Batch reference: the frames a [Stack.run] of the same stack steps   *)
(* ------------------------------------------------------------------ *)

(* The batch frames of one (scheme, app) — [Stack.run]'s own stepper,
   framed as a session frames it — and the epoch count of the
   [Schemes.run] batch run. *)
let batch scheme app =
  let info = Schemes.find_exn scheme in
  let s = Stack.stepper (Schemes.stack info) (workloads_of_app app) in
  let frames = ref [] in
  let rec go () =
    match Stack.step_epoch s with
    | None -> ()
    | Some o ->
      let b = Stack.board s in
      frames :=
        Serve.Protocol.frame ~epoch:(Stack.epoch_count s) ~sim:(Stack.time s) ~o
          ~config:(Board.Xu3.effective_config b) ~placement:(Board.Xu3.placement b)
          ~done_:(Stack.finished s)
        :: !frames;
      go ()
  in
  go ();
  let r = Schemes.run info (workloads_of_app app) in
  (Array.of_list (List.rev !frames), Obs.Health.epochs r.Stack.health)

let verify ld =
  let refs = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let key = (s.scheme, s.app) in
      let frames, epochs =
        match Hashtbl.find_opt refs key with
        | Some r -> r
        | None ->
          let r = batch s.scheme s.app in
          Hashtbl.add refs key r;
          r
      in
      let ok =
        s.frames <= Array.length frames
        && (not s.complete || (s.frames = Array.length frames && s.frames = epochs))
        &&
        let expected = ref (Digest.string "") in
        for i = 0 to s.frames - 1 do
          expected := chain !expected frames.(i)
        done;
        Digest.equal !expected s.digest
      in
      if not ok then
        fail ld.g ~ops:s.frames
          (Printf.sprintf "serve %s/%s: %d served frames differ from the batch run"
             s.scheme s.app s.frames))
    ld.sessions

(* ------------------------------------------------------------------ *)
(* The measurement                                                     *)
(* ------------------------------------------------------------------ *)

type state = { server : Serve.Server.t; port : int; next : unit -> string * string }

let setup ctx =
  load_designs ();
  let server = Serve.Server.create ~step_budget (Serve.Server.Tcp ("", 0)) in
  (* The schedule deals every (scheme, app) pair once per round, in a
     seeded order. Independent draws let a run's mix of long and short,
     cheap and costly sessions, and so its figures, differ from seed to
     seed by ~10%. *)
  let rng = Random.State.make [| ctx.seed |] in
  let pairs = Array.concat (Array.to_list (Array.map (fun k -> Array.map (fun a -> (k, a)) apps) schemes)) in
  let i = ref (Array.length pairs) in
  let next () =
    if !i = Array.length pairs then begin
      shuffle rng pairs;
      i := 0
    end;
    incr i;
    pairs.(!i - 1)
  in
  { server; port = Option.get (Serve.Server.port server); next }

(* The untraced run drives the real server for the whole window. The
   traced run drives the replica loop, with tracing switched on and off
   in alternate blocks of [block_s], so a change in the host's speed
   during the window falls on both sides; the tracing overhead compares
   the per-request times of the two sides. *)
let block_s = 0.25

let run ctx st =
  let ld =
    {
      g = gate ();
      slices = Slices.create ~slice_s:0.1 ~own_p99:true ();
      next = st.next;
      sessions = [];
      deadline = 0.0;
    }
  in
  let untraced_s, traced_s, busy =
    if not ctx.trace then begin
      ignore
        (drive ld ~port:st.port ~seconds:ctx.seconds ~turn:(fun pump_all ->
             Serve.Server.iterate ~timeout:0.0 st.server;
             pump_all ()));
      (0.0, 0.0, 0.0)
    end
    else begin
      let lp = loop_create () in
      (* Index 1: tracing on. *)
      let wall = [| 0.0; 0.0 |] and requests = [| 0; 0 |] in
      let mode = ref 0 and block_end = ref 0.0 and turns = ref 0 in
      ignore
        (drive ld ~port:lp.lport ~seconds:ctx.seconds ~turn:(fun pump_all ->
             let t0 = now () in
             if t0 >= !block_end then begin
               mode := 1 - !mode;
               Tracer.on := !mode = 1;
               block_end := t0 +. block_s
             end;
             let n0 = Slices.steps ld.slices in
             incr turns;
             Tracer.set_run !turns;
             Tracer.span "unit.serve" (fun () ->
                 loop_iterate lp;
                 pump_all ());
             wall.(!mode) <- wall.(!mode) +. (now () -. t0);
             requests.(!mode) <- requests.(!mode) + (Slices.steps ld.slices - n0)));
      List.iter (drop lp) lp.conns;
      (try Unix.close lp.listen with Unix.Unix_error _ -> ());
      ( wall.(0) /. float_of_int (max 1 requests.(0)) *. float_of_int requests.(1),
        wall.(1),
        float_of_int lp.rejects /. float_of_int (max 1 lp.requests) )
    end
  in
  Serve.Server.stop st.server;
  Serve.Server.run st.server;
  let peak_rss_mb = peak_rss_mb () in
  verify ld;
  ld.g.attempted <- Slices.steps ld.slices;
  {
    gate = ld.g;
    rates = ld.slices;
    latencies = ld.slices;
    peak_rss_mb;
    untraced_s;
    traced_s;
    extras = [ ("serve.busy_rejects", busy) ];
    env =
      [
        ("pool", Json.Int 1);
        ("connections", Json.Int connections);
        ("sessions", Json.Int (List.length ld.sessions));
      ];
  }
