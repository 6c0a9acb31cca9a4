(* Tests for the serving subsystem: the transport-free session state
   machine (purity, backpressure, budget split, drain, crash isolation),
   the request parser (field errors, totality) and the select-loop
   server (disconnect isolation, idle sweep). *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

module Json = Obs.Json

let jtype line =
  match Option.bind (Json.member "type" (Json.of_string line)) Json.to_string_opt with
  | Some t -> t
  | None -> Alcotest.failf "response without type: %s" line

let jint key line =
  match Option.bind (Json.member key (Json.of_string line)) Json.to_int_opt with
  | Some v -> v
  | None -> Alcotest.failf "response without int %S: %s" key line

let jstring key line =
  Option.bind (Json.member key (Json.of_string line)) Json.to_string_opt

let jbool key line =
  match Json.member key (Json.of_string line) with
  | Some (Json.Bool b) -> b
  | _ -> Alcotest.failf "response without bool %S: %s" key line

(* All session tests run over the heuristic "coord" scheme: the full
   Layer/Stack machinery with no mu-synthesis, so they are fast and
   deterministic. *)
let configure_line = {|{"type":"configure","scheme":"coord","app":"blackscholes"}|}

let enqueue_ok t line =
  match Serve.Session.enqueue t line with
  | `Accepted -> ()
  | `Rejected r -> Alcotest.failf "unexpected rejection: %s" r

let fresh_session () = Serve.Session.create ~id:1 ()

let configured_session () =
  let t = fresh_session () in
  enqueue_ok t configure_line;
  (match Serve.Session.process t with
  | [ line ] -> check_string "configured" "configured" (jtype line)
  | other -> Alcotest.failf "expected one configured line, got %d" (List.length other));
  t

(* ------------------------------------------------------------------ *)
(* Purity: a served run is bit-identical to a batch stepper run        *)
(* ------------------------------------------------------------------ *)

(* The acceptance bar for the serve subsystem: with no drift, the
   frames a session streams are byte-for-byte the frames a locally
   driven [Stack.stepper] over the same scheme and workload would
   produce. Comparing encoded lines (not parsed floats) makes any
   divergence — ordering, formatting, decision values — fail loudly. *)
let batch_frames () =
  let info = Yukta.Schemes.find_exn "coord" in
  let stepper =
    Yukta.Stack.stepper (Yukta.Schemes.stack info)
      [ Board.Workload.by_name "blackscholes" ]
  in
  let lines = ref [] in
  let continue = ref true in
  while !continue do
    match Yukta.Stack.step_epoch stepper with
    | None -> continue := false
    | Some o ->
      let board = Yukta.Stack.board stepper in
      lines :=
        Serve.Protocol.frame
          ~epoch:(Yukta.Stack.epoch_count stepper)
          ~sim:(Yukta.Stack.time stepper)
          ~o
          ~config:(Board.Xu3.effective_config board)
          ~placement:(Board.Xu3.placement board)
          ~done_:(Yukta.Stack.finished stepper)
        :: !lines
  done;
  List.rev !lines

let test_session_bit_identical_to_batch () =
  let expected = batch_frames () in
  let n = List.length expected in
  check_bool "batch run has epochs" true (n > 100);
  let t = configured_session () in
  enqueue_ok t
    (Printf.sprintf {|{"type":"step","count":%d}|} (n + 10));
  let lines = Serve.Session.process t in
  let frames, rest =
    List.partition (fun l -> jtype l = "frame") lines
  in
  check_int "one epoch one frame" n (List.length frames);
  List.iteri
    (fun i (e, g) ->
      if e <> g then
        Alcotest.failf "frame %d diverged:\nbatch: %s\nserved: %s" i e g)
    (List.combine expected frames);
  (* Stepping past the end answers with the end-of-run summary. *)
  (match rest with
  | [ e ] ->
    check_string "end summary" "end" (jtype e);
    check_bool "completed" true (jbool "completed" e)
  | _ -> Alcotest.failf "expected exactly one end line, got %d" (List.length rest));
  check_int "frames served" n (Serve.Session.frames_served t)

(* With no plant drift the adaptation engine only observes: an
   adaptive hw-ssv session streams the frozen session's frames byte for
   byte and never sends an [adapt] notice. *)
let served_lines ~adapt =
  let t = fresh_session () in
  enqueue_ok t
    (Printf.sprintf
       {|{"type":"configure","scheme":"hw-ssv","app":"blackscholes","adapt":%b}|}
       adapt);
  enqueue_ok t {|{"type":"step","count":100000}|};
  let lines = Serve.Session.process t in
  Serve.Session.finish t;
  lines

let test_session_adapt_without_drift_observes () =
  let frames lines = List.filter (fun l -> jtype l = "frame") lines in
  let frozen = served_lines ~adapt:false in
  let adaptive = served_lines ~adapt:true in
  check_bool "configured adaptive" true
    (List.exists (fun l -> jtype l = "configured" && jbool "adapt" l) adaptive);
  check_bool "run has epochs" true (List.length (frames frozen) > 100);
  check_bool "frames byte-identical" true (frames adaptive = frames frozen);
  check_int "no adapt lines" 0
    (List.length (List.filter (fun l -> jtype l = "adapt") adaptive))

(* ------------------------------------------------------------------ *)
(* Crash isolation and backpressure                                    *)
(* ------------------------------------------------------------------ *)

let test_session_malformed_is_nonfatal () =
  let t = configured_session () in
  enqueue_ok t "this is not json";
  enqueue_ok t {|{"type":"warp"}|};
  enqueue_ok t {|{"type":"step","count":1}|};
  (match Serve.Session.process t with
  | [ e1; e2; frame ] ->
    check_string "parse error" "error" (jtype e1);
    check_bool "non-fatal" false (jbool "fatal" e1);
    check_string "unknown type error" "error" (jtype e2);
    check_string "still serving" "frame" (jtype frame)
  | other -> Alcotest.failf "expected 3 lines, got %d" (List.length other));
  check_int "errors counted" 2 (Serve.Session.errors t);
  check_bool "not closed" false (Serve.Session.closed t)

let test_session_requires_configure () =
  let t = fresh_session () in
  enqueue_ok t {|{"type":"step","count":1}|};
  (match Serve.Session.process t with
  | [ e ] ->
    check_string "error" "error" (jtype e);
    check_bool "non-fatal" false (jbool "fatal" e)
  | _ -> Alcotest.fail "expected one error line")

(* An unknown app is refused by name, the session stays up, and a valid
   configure still works after it. *)
let test_session_unknown_app () =
  let t = fresh_session () in
  enqueue_ok t {|{"type":"configure","scheme":"coord","app":"nope"}|};
  enqueue_ok t configure_line;
  (match Serve.Session.process t with
  | [ e; c ] ->
    check_string "error" "error" (jtype e);
    (match Option.bind (Json.member "message" (Json.of_string e)) Json.to_string_opt with
    | Some m -> check_string "names the app" {|unknown app "nope"|} m
    | None -> Alcotest.failf "error without message: %s" e);
    check_bool "non-fatal" false (jbool "fatal" e);
    check_string "then configured" "configured" (jtype c)
  | other -> Alcotest.failf "expected 2 lines, got %d" (List.length other));
  check_int "error counted" 1 (Serve.Session.errors t)

let test_session_backpressure () =
  (* The queue holds 64 lines; the 65th is answered busy. *)
  let t = fresh_session () in
  enqueue_ok t configure_line;
  for _ = 2 to 64 do
    enqueue_ok t {|{"type":"step","count":1}|}
  done;
  (match Serve.Session.enqueue t {|{"type":"step","count":1}|} with
  | `Accepted -> Alcotest.fail "queue should be full"
  | `Rejected line ->
    check_string "busy" "busy" (jtype line);
    check_int "retry hint" 50 (jint "retry_after_ms" line));
  (* Processing the queue makes room again. *)
  ignore (Serve.Session.process t);
  enqueue_ok t {|{"type":"step","count":1}|}

let test_session_closed_rejects () =
  let t = configured_session () in
  enqueue_ok t {|{"type":"close"}|};
  (match Serve.Session.process t with
  | [ line ] -> check_string "closed" "closed" (jtype line)
  | _ -> Alcotest.fail "expected closed line");
  check_bool "closed" true (Serve.Session.closed t);
  match Serve.Session.enqueue t {|{"type":"step","count":1}|} with
  | `Accepted -> Alcotest.fail "closed session must reject"
  | `Rejected line ->
    check_string "fatal error" "error" (jtype line);
    check_bool "fatal" true (jbool "fatal" line)

(* ------------------------------------------------------------------ *)
(* Request fields: a field the request does not have, or a present     *)
(* field of the wrong type or range, is an error naming it; only an    *)
(* absent field takes its default                                      *)
(* ------------------------------------------------------------------ *)

let parse_error line =
  match Serve.Protocol.request_of_line line with
  | Error e -> e
  | Ok _ -> Alcotest.failf "accepted: %s" line

let test_protocol_field_errors () =
  let drift body =
    Printf.sprintf {|{"type":"configure","scheme":"coord","drift":{"start":5,%s}}|} body
  in
  let severity = "drift.severity must be a number in (0, 10]" in
  List.iter
    (fun (line, expect) -> check_string line expect (parse_error line))
    [
      (drift {|"severity":-1|}, severity);
      (drift {|"severity":0|}, severity);
      (drift {|"severity":1e5|}, severity);
      (drift {|"severity":1e400|}, severity);
      (drift {|"severity":"1"|}, severity);
      (drift {|"severity":1,"kind":7|},
       "drift.kind must be one of power_gain, thermal_gain, perf_gain");
      (drift {|"severity":1,"duration":0|}, "drift.duration must be a number > 0");
      ( {|{"type":"configure","scheme":"coord","drift":{"start":-1,"severity":1}}|},
        "drift.start must be a finite number >= 0" );
      ({|{"type":"configure","scheme":"coord","drift":{"start":1}}|},
       {|drift needs a "severity"|});
      ({|{"type":"configure","scheme":"coord","drift":true}|},
       "configure.drift must be an object");
      ({|{"type":"configure","scheme":"coord","app":5}|}, "configure.app must be a string");
      ({|{"type":"configure","scheme":"coord","adapt":"yes"}|},
       "configure.adapt must be a boolean");
      ({|{"type":"configure","scheme":null}|}, "configure.scheme must be a string");
      ({|{"type":"configure"}|}, {|configure needs a "scheme"|});
      ({|{"type":"step","count":2.5}|}, "step.count must be an integer >= 1");
      ({|{"type":"step","count":"7"}|}, "step.count must be an integer >= 1");
      ({|{"type":"step","count":1e3}|}, "step.count must be an integer >= 1");
      ({|{"type":"step","count":0}|}, "step.count must be an integer >= 1");
      ({|{"type":"hello","client":1}|}, "hello.client must be a string");
      ({|{"type":7}|}, {|"type" must be a string|});
      (* A field the request does not have: retired, misspelt, or
         another request's. *)
      ({|{"type":"configure","scheme":"coord","epoch":0.25}|},
       {|configure has no field "epoch"|});
      ({|{"type":"configure","scheme":"coord","adpat":true}|},
       {|configure has no field "adpat"|});
      ({|{"type":"configure","epoch":0.25}|}, {|configure has no field "epoch"|});
      (drift {|"severity":1,"sevrity":2|}, {|drift has no field "sevrity"|});
      ({|{"type":"hello","client":"t","count":1}|}, {|hello has no field "count"|});
      ({|{"type":"step","count":1,"scheme":"coord"}|}, {|step has no field "scheme"|});
      ({|{"type":"health","verbose":true}|}, {|health has no field "verbose"|});
      ({|{"type":"drain","count":1}|}, {|drain has no field "count"|});
      ({|{"type":"close","reason":"done"}|}, {|close has no field "reason"|});
    ];
  (* Absent fields take their defaults; ten guardbands is accepted. *)
  (match
     Serve.Protocol.request_of_line
       {|{"type":"configure","scheme":"coord","drift":{"start":5,"severity":10}}|}
   with
  | Ok (Serve.Protocol.Configure { app; adapt; drift = Some d; _ }) ->
    check_string "default app" "blackscholes" app;
    check_bool "default adapt" false adapt;
    check_string "default kind" "power_gain" d.Serve.Protocol.kind;
    check_bool "default duration" true (d.Serve.Protocol.duration = Float.infinity)
  | _ -> Alcotest.fail "expected a configure with a drift");
  match Serve.Protocol.request_of_line {|{"type":"step"}|} with
  | Ok (Serve.Protocol.Step { count }) -> check_int "default count" 1 count
  | _ -> Alcotest.fail "expected a step"

(* A session answers a bad or unknown field with a non-fatal error
   naming it, not an internal error or a configure with defaults, and
   keeps serving. *)
let test_session_field_error_names_field () =
  let t = fresh_session () in
  enqueue_ok t
    {|{"type":"configure","scheme":"coord","drift":{"start":5,"severity":-1}}|};
  enqueue_ok t {|{"type":"configure","scheme":"coord","epoch":0.25}|};
  enqueue_ok t configure_line;
  match Serve.Session.process t with
  | [ e; u; c ] ->
    check_string "error" "error" (jtype e);
    check_bool "names the field" true
      (jstring "message" e = Some "drift.severity must be a number in (0, 10]");
    check_bool "non-fatal" false (jbool "fatal" e);
    check_string "unknown field: error" "error" (jtype u);
    check_bool "names the unknown field" true
      (jstring "message" u = Some {|configure has no field "epoch"|});
    check_bool "unknown field non-fatal" false (jbool "fatal" u);
    check_string "then configured" "configured" (jtype c)
  | other -> Alcotest.failf "expected 3 lines, got %d" (List.length other)

(* The protocol is total: a line of any type, with each of that type's
   fields absent or drawn from every JSON kind, parses without raising,
   and a fresh session fed it (then one step, once configured) answers
   no internal error. Now and then a line also carries a field its type
   does not have (the retired configure [epoch], a misspelt [adpat], or
   another type's field): it must be refused with an error, never taken
   with defaults. Schemes are the heuristic ones, so no synthesis
   runs. *)
let prop_protocol_total =
  let open QCheck.Gen in
  let text s = Printf.sprintf "%S" s in
  (* Mostly present, and mostly a value the field accepts, so configured
     runs get stepped; otherwise absent or any JSON kind. *)
  let value valid =
    frequency
      [
        (60, valid);
        (1, return {|"x"|});
        (1, map string_of_int (int_range 1 5));
        (1, return "0");
        (1, map (fun n -> string_of_int (-n)) (int_range 1 5));
        (1, return "1e300");
        (1, return "1e400");
        (1, map string_of_bool bool);
        (1, return "null");
        (1, return {|[1,"a"]|});
        (1, return {|{"x":1}|});
      ]
  in
  let render kvs =
    "{" ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) kvs) ^ "}"
  in
  let present fields =
    map (List.filter_map Fun.id)
      (flatten_l
         (List.map (fun (k, v) -> opt ~ratio:0.8 (map (fun v -> (k, v)) v)) fields))
  in
  let obj fields = map render (present fields) in
  let number = map string_of_int (int_range 1 9) in
  let drift =
    obj
      [
        ("start", value number);
        ("severity", value number);
        ("duration", value number);
        ("kind", value (map text (oneofl [ "power_gain"; "thermal_gain"; "perf_gain" ])));
      ]
  in
  let fields = function
    | "hello" -> [ ("client", value (return {|"t"|})) ]
    | "configure" ->
      [
        ("scheme", value (map text (oneofl [ "coord"; "decoupled" ])));
        ("app", value (map text (oneofl [ "blackscholes"; "mcf"; "blmc"; "nope" ])));
        ("adapt", value (map string_of_bool bool));
        ("drift", value drift);
      ]
    | "step" -> [ ("count", value number) ]
    | _ -> []
  in
  let foreign =
    [
      ("epoch", "0.25"); ("adpat", "true"); ("client", {|"t"|});
      ("scheme", {|"coord"|}); ("app", {|"mcf"|}); ("adapt", "false");
      ("drift", {|{"start":1,"severity":1}|}); ("count", "1");
    ]
  in
  let line =
    let* ty =
      frequencyl
        [
          (1, "hello"); (6, "configure"); (1, "step"); (1, "health");
          (1, "drain"); (1, "close"); (1, "junk");
        ]
    in
    let own = fields ty in
    let* extra =
      frequency
        [
          (9, return None);
          ( 1,
            map Option.some
              (oneofl
                 (List.filter (fun (k, _) -> not (List.mem_assoc k own)) foreign)) );
        ]
    in
    let+ kvs = present (("type", value (return (text ty))) :: own) in
    (render (kvs @ Option.to_list extra), extra <> None)
  in
  let internal l =
    jtype l = "error"
    && Option.fold ~none:false
         ~some:(String.starts_with ~prefix:"internal error")
         (jstring "message" l)
  in
  QCheck.Test.make ~name:"protocol total" ~count:10000
    (QCheck.make ~print:fst line)
    (fun (line, foreign) ->
      (match Serve.Protocol.request_of_line line with Ok _ | Error _ -> ());
      let t = fresh_session () in
      enqueue_ok t line;
      let first = Serve.Session.process t in
      let rest =
        if List.exists (fun l -> jtype l = "configured") first then begin
          enqueue_ok t {|{"type":"step","count":1}|};
          Serve.Session.process t
        end
        else []
      in
      Serve.Session.finish t;
      (not (List.exists internal (first @ rest)))
      && ((not foreign) || List.for_all (fun l -> jtype l = "error") first))

(* ------------------------------------------------------------------ *)
(* Epoch budget: split, carry, drain                                   *)
(* ------------------------------------------------------------------ *)

let test_session_budget_carry () =
  let t = configured_session () in
  enqueue_ok t {|{"type":"step","count":10}|};
  let first = Serve.Session.process ~budget:4 t in
  check_int "budget bounds the chunk" 4 (List.length first);
  check_bool "remainder pending" true (Serve.Session.pending t > 0);
  let second = Serve.Session.process ~budget:4 t in
  check_int "carry resumes" 4 (List.length second);
  let third = Serve.Session.process ~budget:4 t in
  check_int "tail" 2 (List.length third);
  check_int "nothing pending" 0 (Serve.Session.pending t);
  (* Frame epochs are contiguous across the splits. *)
  let epochs = List.map (jint "epoch") (first @ second @ third) in
  List.iteri (fun i e -> check_int "contiguous epoch" (i + 1) e) epochs

let test_session_drain_streams_under_budget () =
  let expected = List.length (batch_frames ()) in
  let t = configured_session () in
  enqueue_ok t {|{"type":"drain"}|};
  let lines = ref [] in
  let rounds = ref 0 in
  let chunk = 50 in
  lines := Serve.Session.process ~budget:chunk t;
  while Serve.Session.pending t > 0 do
    incr rounds;
    if !rounds > (expected / chunk) + 3 then
      Alcotest.fail "drain did not converge";
    let more = Serve.Session.process ~budget:chunk t in
    check_bool "drain makes progress" true (more <> []);
    lines := !lines @ more
  done;
  check_bool "drain spans process calls" true (!rounds >= expected / chunk);
  let frames = List.filter (fun l -> jtype l = "frame") !lines in
  check_int "full run drained" expected (List.length frames);
  match List.rev !lines with
  | last :: _ ->
    check_string "drained summary" "drained" (jtype last);
    check_bool "completed" true (jbool "completed" last);
    check_int "epochs" expected (jint "epochs" last)
  | [] -> Alcotest.fail "no drain output"

(* ------------------------------------------------------------------ *)
(* Server loop: isolation and idle sweep                               *)
(* ------------------------------------------------------------------ *)

(* Minimal inline client: blocking connect, nonblocking reads, the
   server loop driven by [Server.iterate] between polls. *)
let connect srv =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Serve.Server.address srv);
  Unix.set_nonblock fd;
  fd

let send_line srv fd line =
  let payload = Bytes.of_string (line ^ "\n") in
  let off = ref 0 in
  while !off < Bytes.length payload do
    match Unix.write fd payload !off (Bytes.length payload - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Serve.Server.iterate ~timeout:0.01 srv
  done

exception Disconnected

(* Read until [want] complete lines arrived (driving the server loop),
   or fail after ~2 s of no progress. *)
let read_lines srv fd ~want =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let lines = ref [] in
  let idle = ref 0 in
  while List.length !lines < want do
    Serve.Server.iterate ~timeout:0.005 srv;
    (match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> raise Disconnected
    | n ->
      idle := 0;
      Buffer.add_subbytes buf chunk 0 n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      incr idle;
      if !idle > 400 then
        Alcotest.failf "timed out waiting for %d lines (got %d)" want
          (List.length !lines));
    let rec split () =
      let s = Buffer.contents buf in
      match String.index_opt s '\n' with
      | Some i ->
        lines := String.sub s 0 i :: !lines;
        Buffer.clear buf;
        Buffer.add_string buf (String.sub s (i + 1) (String.length s - i - 1));
        split ()
      | None -> ()
    in
    split ()
  done;
  List.rev !lines

let with_server ?idle_timeout f =
  let srv =
    Serve.Server.create ?idle_timeout ~step_budget:64 (Serve.Server.Tcp ("", 0))
  in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop srv;
      Serve.Server.run srv)
    (fun () -> f srv)

let greet srv fd =
  send_line srv fd {|{"type":"hello","client":"test"}|};
  match read_lines srv fd ~want:1 with
  | [ w ] -> check_string "welcome" "welcome" (jtype w)
  | _ -> Alcotest.fail "expected welcome"

let configure srv fd =
  send_line srv fd configure_line;
  match read_lines srv fd ~want:1 with
  | [ c ] -> check_string "configured" "configured" (jtype c)
  | _ -> Alcotest.fail "expected configured"

(* A mid-stream disconnect of one client must not disturb a concurrent
   session: the survivor keeps streaming correct, contiguous frames. *)
let test_server_disconnect_isolation () =
  with_server (fun srv ->
      let a = connect srv and b = connect srv in
      greet srv a;
      greet srv b;
      configure srv a;
      configure srv b;
      send_line srv b {|{"type":"step","count":3}|};
      let before = read_lines srv b ~want:3 in
      (* A dies mid-stream, with a large step in flight. *)
      send_line srv a {|{"type":"step","count":10000}|};
      Serve.Server.iterate ~timeout:0.01 srv;
      Unix.close a;
      for _ = 1 to 10 do
        Serve.Server.iterate ~timeout:0.005 srv
      done;
      (* B is unaffected: its frames continue exactly where they left
         off. *)
      send_line srv b {|{"type":"step","count":3}|};
      let after = read_lines srv b ~want:3 in
      List.iteri
        (fun i l -> check_int "contiguous epochs" (i + 1) (jint "epoch" l))
        (before @ after);
      let s = Serve.Server.stats srv in
      check_int "two accepted" 2 s.accepted;
      check_int "one still active" 1 s.active;
      check_bool "frames flowed" true (s.frames >= 6);
      send_line srv b {|{"type":"close"}|};
      (match read_lines srv b ~want:1 with
      | [ c ] -> check_string "closed" "closed" (jtype c)
      | _ -> Alcotest.fail "expected closed");
      Unix.close b)

let test_server_idle_sweep () =
  with_server ~idle_timeout:0.05 (fun srv ->
      let fd = connect srv in
      greet srv fd;
      Unix.sleepf 0.12;
      (* The sweep sends a fatal idle-timeout error and closes. *)
      (match read_lines srv fd ~want:1 with
      | [ e ] ->
        check_string "error" "error" (jtype e);
        check_bool "fatal" true (jbool "fatal" e)
      | _ -> Alcotest.fail "expected idle error");
      (match read_lines srv fd ~want:1 with
      | exception Disconnected -> ()
      | _ -> Alcotest.fail "connection should be closed");
      check_int "swept" 0 (Serve.Server.stats srv).active;
      Unix.close fd)

(* A non-positive or NaN idle timeout and a budget below one epoch are
   refused before anything is bound. *)
let test_server_create_validates () =
  let refused ?idle_timeout ?step_budget () =
    match
      Serve.Server.create ?idle_timeout ?step_budget (Serve.Server.Tcp ("", 0))
    with
    | exception Invalid_argument _ -> true
    | srv ->
      Serve.Server.stop srv;
      Serve.Server.run srv;
      false
  in
  List.iter
    (fun t ->
      check_bool (Printf.sprintf "idle timeout %g refused" t) true
        (refused ~idle_timeout:t ()))
    [ 0.0; -1.0; Float.nan ];
  check_bool "step budget 0 refused" true (refused ~step_budget:0 ())

let () =
  Alcotest.run "serve"
    [
      ( "session",
        [
          Alcotest.test_case "bit-identical to batch" `Quick
            test_session_bit_identical_to_batch;
          Alcotest.test_case "adapt without drift only observes" `Quick
            test_session_adapt_without_drift_observes;
          Alcotest.test_case "malformed is non-fatal" `Quick
            test_session_malformed_is_nonfatal;
          Alcotest.test_case "requires configure" `Quick
            test_session_requires_configure;
          Alcotest.test_case "unknown app named" `Quick
            test_session_unknown_app;
          Alcotest.test_case "backpressure" `Quick test_session_backpressure;
          Alcotest.test_case "closed rejects" `Quick test_session_closed_rejects;
          Alcotest.test_case "budget carry" `Quick test_session_budget_carry;
          Alcotest.test_case "drain streams" `Quick
            test_session_drain_streams_under_budget;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "field errors" `Quick test_protocol_field_errors;
          Alcotest.test_case "session names the field" `Quick
            test_session_field_error_names_field;
          QCheck_alcotest.to_alcotest prop_protocol_total;
        ] );
      ( "server",
        [
          Alcotest.test_case "disconnect isolation" `Quick
            test_server_disconnect_isolation;
          Alcotest.test_case "idle sweep" `Quick test_server_idle_sweep;
          Alcotest.test_case "create validates" `Quick
            test_server_create_validates;
        ] );
    ]
