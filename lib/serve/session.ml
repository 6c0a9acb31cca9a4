(* One serving session: a transport-free state machine from request
   lines to response lines. The server owns sockets and scheduling; a
   session owns one scheme run — a live {!Yukta.Stack.stepper} over a
   server-hosted board — plus an optional {!Adapt} engine.

   Two-phase operation keeps many sessions fair on one loop:
   [enqueue] bounds the inbound queue (backpressure answers [busy] with
   a retry hint instead of buffering without limit), and [process]
   drains it under an epoch budget, so one session streaming a huge
   [step] cannot starve its neighbours. Everything a request does is
   crash-isolated: an exception becomes a non-fatal [error] line and
   the session keeps serving. *)

type run = {
  stepper : Yukta.Stack.stepper;
  scheme : Yukta.Schemes.info;
  adapt : Adapt.t option;
  mutable completion_emitted : bool;
}

type state = Fresh | Configured of run | Closed

type t = {
  id : int;
  queue : string Queue.t;
  mutable carry : int; (* Leftover epochs of a budget-split [step]. *)
  mutable draining : bool; (* A [drain] is streaming to completion. *)
  mutable state : state;
  mutable served : int; (* Frames emitted over the session lifetime. *)
  mutable errors : int;
  mutable past_swaps : int; (* Swaps of already-finished runs. *)
}

(* Inbound queue bound, and the retry hint a [busy] reply carries. *)
let max_queue = 64

let retry_after_ms = 50

let create ~id () =
  {
    id;
    queue = Queue.create ();
    carry = 0;
    draining = false;
    state = Fresh;
    served = 0;
    errors = 0;
    past_swaps = 0;
  }

let closed t = t.state = Closed

let pending t =
  Queue.length t.queue + if t.carry > 0 || t.draining then 1 else 0

let frames_served t = t.served

let errors t = t.errors

let swaps t =
  t.past_swaps
  + match t.state with
    | Configured { adapt = Some a; _ } -> Adapt.swaps a
    | _ -> 0

let enqueue t line =
  if t.state = Closed then
    `Rejected (Protocol.error ~fatal:true "session closed")
  else if Queue.length t.queue >= max_queue then
    `Rejected (Protocol.busy ~retry_after_ms)
  else begin
    Queue.push line t.queue;
    `Accepted
  end

let injector_of_drift (d : Protocol.drift) =
  let fault =
    match d.Protocol.kind with
    | "thermal_gain" -> Fault.Spec.Thermal_resistance_drift d.Protocol.severity
    | "perf_gain" -> Fault.Spec.Workload_phase_shift d.Protocol.severity
    | _ -> Fault.Spec.Power_gain_drift d.Protocol.severity
  in
  Fault.Injector.hooks
    (Fault.Injector.make
       [
         Fault.Spec.make ~start:d.Protocol.start ~duration:d.Protocol.duration
           fault;
       ])

let finish_run t =
  match t.state with
  | Configured r ->
    Option.iter
      (fun a ->
        Adapt.finish a;
        t.past_swaps <- t.past_swaps + Adapt.swaps a)
      r.adapt
  | Fresh | Closed -> ()

(* Emit the run-complete summary exactly once, as [Stack.run] does. *)
let note_completion r =
  if (not r.completion_emitted) && Yukta.Stack.finished r.stepper then begin
    r.completion_emitted <- true;
    Yukta.Stack.complete_event r.stepper
  end

let do_configure t ~scheme ~app ~adapt ~drift =
  let refuse message =
    t.errors <- t.errors + 1;
    [ Protocol.error message ]
  in
  match (Yukta.Schemes.find scheme, Board.Workload.resolve app) with
  | None, _ -> refuse (Printf.sprintf "unknown scheme %S" scheme)
  | _, None -> refuse (Printf.sprintf "unknown app %S" app)
  | Some info, Some workloads ->
    let injector = Option.map injector_of_drift drift in
    let stack = Yukta.Schemes.stack info in
    let stepper = Yukta.Stack.stepper ?injector stack workloads in
    let engine =
      if adapt then Adapt.for_stack (Yukta.Stack.stack stepper) else None
    in
    finish_run t;
    t.carry <- 0;
    t.draining <- false;
    t.state <-
      Configured
        { stepper; scheme = info; adapt = engine; completion_emitted = false };
    [
      Protocol.configured ~session:t.id ~scheme:info.Yukta.Schemes.key
        ~layers:info.Yukta.Schemes.layers ~adapt:(engine <> None);
    ]

let run_required t k =
  match t.state with
  | Configured r -> k r
  | Fresh ->
    t.errors <- t.errors + 1;
    [ Protocol.error "not configured: send a configure request first" ]
  | Closed -> [ Protocol.error ~fatal:true "session closed" ]

(* One epoch: advance the plant, frame the decision, append any
   adaptation notices. [advanced = false] means the run had already
   ended and an [end] summary was emitted instead of a frame. *)
let step_once t r =
  (* The input the plant is about to run, for online identification —
     after the epoch the board carries the next epoch's commands. *)
  (match r.adapt with
  | Some engine -> Adapt.pre_step engine (Yukta.Stack.board r.stepper)
  | None -> ());
  match Yukta.Stack.step_epoch r.stepper with
  | None ->
    note_completion r;
    let board = Yukta.Stack.board r.stepper in
    ( [
        Protocol.end_of_run ~sim:(Board.Xu3.time board)
          ~metrics:(Board.Xu3.metrics board)
          ~completed:(Board.Xu3.finished board);
      ],
      false )
  | Some o ->
    let board = Yukta.Stack.board r.stepper in
    let epoch = Yukta.Stack.epoch_count r.stepper in
    let sim = Yukta.Stack.time r.stepper in
    let adapt_lines =
      match r.adapt with
      | None -> []
      | Some engine ->
        List.map
          (fun ev ->
            match ev with
            | Adapt.Drift_detected { epoch; level; baseline } ->
              Protocol.adapt_notification ~name:"adapt.drift" ~epoch ~sim
                [
                  ("level", Obs.Json.Float level);
                  ("baseline", Obs.Json.Float baseline);
                ]
            | Adapt.Swapped { epoch; latency_epochs; latency_s; mu_peak } ->
              Protocol.adapt_notification ~name:"adapt.swap" ~epoch ~sim
                [
                  ("latency_epochs", Obs.Json.Int latency_epochs);
                  ("latency_s", Obs.Json.Float latency_s);
                  ("mu_peak", Obs.Json.Float mu_peak);
                ]
            | Adapt.Synthesis_failed { epoch; message } ->
              Protocol.adapt_notification ~name:"adapt.failed" ~epoch ~sim
                [ ("message", Obs.Json.String message) ])
          (Adapt.observe engine ~epoch board o)
    in
    let done_ = Yukta.Stack.finished r.stepper in
    if done_ then note_completion r;
    t.served <- t.served + 1;
    let frame =
      Protocol.frame ~epoch ~sim ~o
        ~config:(Board.Xu3.effective_config board)
        ~placement:(Board.Xu3.placement board)
        ~done_
    in
    (frame :: adapt_lines, true)

(* A drain free-runs the rest of the workload, so it must be bounded:
   a degraded plant (or a hostile request) could otherwise spin the
   server forever. The cap is [Stack.run]'s default horizon, so a
   drained session ends where a batch run would. *)
let drain_max_time = Yukta.Stack.default_max_time

(* Stream drain epochs under the budget. When the run ends — or the
   simulated-time cap trips — emit the [drained] summary and leave
   drain mode. Otherwise [t.draining] stays set and the next [process]
   call resumes here, so a long drain shares the loop fairly. *)
let drain_chunk t r ~budget =
  let lines = ref [] in
  let stepped = ref 0 in
  let ended = ref false in
  while
    (not !ended) && !stepped < max 1 budget
    && Yukta.Stack.time r.stepper < drain_max_time
  do
    let out, advanced = step_once t r in
    lines := List.rev_append out !lines;
    if advanced then incr stepped else ended := true
  done;
  if !ended || Yukta.Stack.time r.stepper >= drain_max_time then begin
    t.draining <- false;
    Option.iter Adapt.finish r.adapt;
    let board = Yukta.Stack.board r.stepper in
    lines :=
      Protocol.drained
        ~epochs:(Yukta.Stack.epoch_count r.stepper)
        ~sim:(Board.Xu3.time board)
        ~metrics:(Board.Xu3.metrics board)
        ~completed:(Board.Xu3.finished board)
      :: !lines
  end;
  (List.rev !lines, !stepped)

(* Step up to [budget] epochs toward a request for [count]; leftover
   epochs wait in [t.carry] for the next [process] call. Returns the
   response lines and the epochs actually stepped. *)
let step_epochs t r ~count ~budget =
  let lines = ref [] in
  let stepped = ref 0 in
  let ended = ref false in
  while (not !ended) && !stepped < count && !stepped < budget do
    let out, advanced = step_once t r in
    lines := List.rev_append out !lines;
    if advanced then incr stepped else ended := true
  done;
  t.carry <- (if !ended then 0 else count - !stepped);
  (List.rev !lines, !stepped)

(* Handle one parsed request under the remaining epoch [budget];
   returns the response lines and the epochs it consumed. *)
let handle t request ~budget =
  match request with
  | Protocol.Hello _ -> ([ Protocol.welcome () ], 0)
  | Protocol.Configure { scheme; app; adapt; drift } ->
    (do_configure t ~scheme ~app ~adapt ~drift, 0)
  | Protocol.Step { count } ->
    let cost = ref 0 in
    let lines =
      run_required t (fun r ->
          let out, stepped = step_epochs t r ~count ~budget in
          cost := stepped;
          out)
    in
    (lines, !cost)
  | Protocol.Health ->
    ( run_required t (fun r ->
          [ Protocol.health_snapshot (Yukta.Stack.health r.stepper) ]),
      0 )
  | Protocol.Drain ->
    let cost = ref 0 in
    let lines =
      run_required t (fun r ->
          t.draining <- true;
          let out, stepped = drain_chunk t r ~budget in
          cost := stepped;
          out)
    in
    (lines, !cost)
  | Protocol.Close ->
    finish_run t;
    t.state <- Closed;
    ([ Protocol.closed () ], 0)

let process ?(budget = max_int) t =
  let out = ref [] in
  let spent = ref 0 in
  (* Resume a budget-split step or an in-progress drain before
     touching the queue. *)
  (match t.state with
  | Configured r when t.carry > 0 ->
    let count = t.carry in
    t.carry <- 0;
    let lines, stepped = step_epochs t r ~count ~budget in
    spent := !spent + stepped;
    out := List.rev_append lines !out
  | Configured r when t.draining ->
    let lines, stepped = drain_chunk t r ~budget in
    spent := !spent + stepped;
    out := List.rev_append lines !out
  | _ ->
    t.carry <- 0;
    t.draining <- false);
  let continue = ref true in
  while
    !continue && (not (Queue.is_empty t.queue)) && t.carry = 0
    && (not t.draining) && !spent < max 1 budget
  do
    let line = Queue.pop t.queue in
    if t.state = Closed then begin
      (* A closed session answers nothing further. *)
      Queue.clear t.queue;
      continue := false
    end
    else
      match Protocol.request_of_line line with
      | Error msg ->
        t.errors <- t.errors + 1;
        out := Protocol.error msg :: !out
      | Ok request -> (
        match handle t request ~budget:(budget - !spent) with
        | lines, cost ->
          spent := !spent + cost;
          out := List.rev_append lines !out
        | exception exn ->
          t.errors <- t.errors + 1;
          out :=
            Protocol.error
              (Printf.sprintf "internal error: %s" (Printexc.to_string exn))
            :: !out)
  done;
  List.rev !out

let finish t =
  finish_run t;
  t.state <- Closed
