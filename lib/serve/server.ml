(* The serving front end: one single-threaded [Unix.select] loop
   multiplexing any number of NDJSON connections, each bound to one
   {!Session}.

   Per-connection state is a partial inbound line, an outbound byte
   buffer, and an activity stamp. Every iteration: accept, read
   (splitting complete lines into the session queue, with backpressure
   rejections answered immediately), process each session under the
   fairness budget, write what the sockets will take, and sweep idle or
   finished connections. All socket errors and handler exceptions are
   contained to their own connection — the loop and the other sessions
   keep running. *)

type address = Unix_path of string | Tcp of string * int

type conn = {
  fd : Unix.file_descr;
  session : Session.t;
  mutable partial : string; (* Inbound bytes after the last newline. *)
  outbuf : Buffer.t;
  mutable sent : int; (* Bytes of [outbuf] already written. *)
  mutable last_activity : float;
  mutable dropping : bool; (* Close once [outbuf] drains. *)
}

type stats = {
  accepted : int;
  active : int;
  frames : int;
  swaps : int;
  errors : int;
}

type t = {
  listen_fd : Unix.file_descr;
  sockaddr : Unix.sockaddr;
  cleanup_path : string option;
  idle_timeout : float;
  step_budget : int;
  mutable conns : conn list;
  mutable next_id : int;
  mutable stopping : bool;
  mutable accepted : int;
  (* Counters of the sessions already dropped; [stats] adds the live
     ones. *)
  mutable dropped_frames : int;
  mutable dropped_swaps : int;
  mutable dropped_errors : int;
}

let default_step_budget = 256

let default_idle_timeout = 30.0

(* The longest request line a client may send before a newline. *)
let max_line = 65536

let sockaddr_of_address = function
  | Unix_path path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
    let inet =
      if host = "" || host = "*" then Unix.inet_addr_loopback
      else Unix.inet_addr_of_string host
    in
    Unix.ADDR_INET (inet, port)

let create ?(idle_timeout = default_idle_timeout)
    ?(step_budget = default_step_budget) address =
  if not (idle_timeout > 0.0) then
    invalid_arg "Server.create: idle_timeout must be positive";
  if step_budget < 1 then
    invalid_arg "Server.create: step_budget must be >= 1";
  let sockaddr = sockaddr_of_address address in
  let domain = Unix.domain_of_sockaddr sockaddr in
  let cleanup_path =
    match address with
    | Unix_path path ->
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      Some path
    | Tcp _ -> None
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try Unix.setsockopt fd Unix.SO_REUSEADDR true
   with Unix.Unix_error _ -> ());
  Unix.bind fd sockaddr;
  Unix.listen fd 16;
  Unix.set_nonblock fd;
  {
    listen_fd = fd;
    sockaddr = Unix.getsockname fd;
    cleanup_path;
    idle_timeout;
    step_budget;
    conns = [];
    next_id = 1;
    stopping = false;
    accepted = 0;
    dropped_frames = 0;
    dropped_swaps = 0;
    dropped_errors = 0;
  }

let address t = t.sockaddr

let port t =
  match t.sockaddr with Unix.ADDR_INET (_, p) -> Some p | _ -> None

let stop t = t.stopping <- true

let stats t =
  (* Fold live sessions in so the snapshot is current mid-run. *)
  let live f = List.fold_left (fun n c -> n + f c.session) 0 t.conns in
  {
    accepted = t.accepted;
    active = List.length t.conns;
    frames = t.dropped_frames + live Session.frames_served;
    swaps = t.dropped_swaps + live Session.swaps;
    errors = t.dropped_errors + live Session.errors;
  }

let queue_line conn line =
  Buffer.add_string conn.outbuf line;
  Buffer.add_char conn.outbuf '\n'

let drop t conn =
  if List.memq conn t.conns then begin
    t.conns <- List.filter (fun c -> c != conn) t.conns;
    t.dropped_frames <- t.dropped_frames + Session.frames_served conn.session;
    t.dropped_swaps <- t.dropped_swaps + Session.swaps conn.session;
    t.dropped_errors <- t.dropped_errors + Session.errors conn.session;
    Session.finish conn.session;
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  end

let accept_ready t now =
  match Unix.accept t.listen_fd with
  | fd, _peer ->
    Unix.set_nonblock fd;
    let session = Session.create ~id:t.next_id () in
    t.next_id <- t.next_id + 1;
    t.accepted <- t.accepted + 1;
    t.conns <-
      {
        fd;
        session;
        partial = "";
        outbuf = Buffer.create 1024;
        sent = 0;
        last_activity = now;
        dropping = false;
      }
      :: t.conns
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()

(* Feed complete inbound lines to the session, answering backpressure
   rejections immediately. Oversized lines (no newline within
   [max_line] bytes) are dropped with a fatal error: an unframed peer
   would otherwise grow the buffer forever. *)
let ingest conn data =
  conn.last_activity <- Unix.gettimeofday ();
  let buf = conn.partial ^ data in
  let parts = String.split_on_char '\n' buf in
  let rec feed = function
    | [] -> ()
    | [ rest ] ->
      if String.length rest > max_line then begin
        conn.partial <- "";
        queue_line conn
          (Protocol.error ~fatal:true
             (Printf.sprintf "line exceeds %d bytes" max_line));
        conn.dropping <- true
      end
      else conn.partial <- rest
    | line :: tl ->
      let line =
        if String.length line > 0 && line.[String.length line - 1] = '\r' then
          String.sub line 0 (String.length line - 1)
        else line
      in
      (if line <> "" then
         match Session.enqueue conn.session line with
         | `Accepted -> ()
         | `Rejected response -> queue_line conn response);
      feed tl
  in
  feed parts

let read_ready t conn =
  let chunk = Bytes.create 4096 in
  match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
  | 0 -> drop t conn (* Peer closed; mid-stream disconnects land here. *)
  | n -> ingest conn (Bytes.sub_string chunk 0 n)
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> drop t conn

let write_ready t conn =
  let data = Buffer.to_bytes conn.outbuf in
  let len = Bytes.length data - conn.sent in
  if len > 0 then
    match Unix.write conn.fd data conn.sent len with
    | n ->
      conn.sent <- conn.sent + n;
      conn.last_activity <- Unix.gettimeofday ();
      if conn.sent = Bytes.length data then begin
        Buffer.clear conn.outbuf;
        conn.sent <- 0
      end
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> drop t conn

let pending_out conn = Buffer.length conn.outbuf - conn.sent > 0

(* One loop iteration; [timeout] bounds the select wait. *)
let iterate ?(timeout = 0.2) t =
  let now = Unix.gettimeofday () in
  let reads = t.listen_fd :: List.map (fun c -> c.fd) t.conns in
  let writes =
    List.filter_map
      (fun c -> if pending_out c then Some c.fd else None)
      t.conns
  in
  let readable, writable, _ =
    try Unix.select reads writes [] timeout
    with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
  in
  if List.mem t.listen_fd readable && not t.stopping then accept_ready t now;
  List.iter
    (fun conn ->
      if List.mem conn.fd readable && not conn.dropping then
        try read_ready t conn with _ -> drop t conn)
    t.conns;
  (* Let every session advance under the fairness budget; responses are
     queued for the next writable window. Handler crashes are contained
     to their connection. *)
  List.iter
    (fun conn ->
      if not conn.dropping then
        try
          let lines = Session.process ~budget:t.step_budget conn.session in
          if lines <> [] then begin
            List.iter (queue_line conn) lines;
            conn.last_activity <- Unix.gettimeofday ()
          end
        with _ -> drop t conn)
    t.conns;
  List.iter
    (fun conn -> if List.mem conn.fd writable then write_ready t conn)
    t.conns;
  (* Sweep: flushed-and-finished, and idle connections. *)
  let now = Unix.gettimeofday () in
  List.iter
    (fun conn ->
      if pending_out conn then ()
      else if conn.dropping || Session.closed conn.session then drop t conn
      else if
        Session.pending conn.session = 0
        && now -. conn.last_activity > t.idle_timeout
      then begin
        queue_line conn (Protocol.error ~fatal:true "idle timeout");
        conn.dropping <- true
      end)
    t.conns

let shutdown t =
  List.iter (fun conn -> drop t conn) t.conns;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  match t.cleanup_path with
  | Some path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | None -> ()

let run ?(once = false) t =
  let finished () =
    t.stopping || (once && t.accepted > 0 && t.conns = [])
  in
  (try
     while not (finished ()) do
       iterate t
     done
   with exn ->
     shutdown t;
     raise exn);
  shutdown t
