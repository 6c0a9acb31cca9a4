let flag = Atomic.make false

let enabled () = Atomic.get flag

let enable () = Atomic.set flag true

let disable () = Atomic.set flag false

(* Anyone listening at all? Sites that feed both the trace stream and
   the flight recorder guard on this instead of [enabled]. *)
let observing () = Atomic.get flag || Recorder.enabled ()

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

(* The sink, the buffer and the file handle are process-global; every
   access goes through [sink_mutex] so domains never interleave inside a
   line or race the handle. Per-domain capture (below) bypasses the
   global sink entirely, which is how parallel drivers keep trace order
   deterministic: capture per task, replay in input order. *)

let sink_mutex = Mutex.create ()

let locked f =
  Mutex.lock sink_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock sink_mutex) f

let buffer : string list ref = ref []

let buffer_write line = buffer := line :: !buffer

let sink : (string -> unit) ref = ref buffer_write

let out : out_channel option ref = ref None

let set_sink f = locked (fun () -> sink := f)

let buffer_sink () =
  locked (fun () ->
      buffer := [];
      sink := buffer_write)

let drain () =
  locked (fun () ->
      let lines = List.rev !buffer in
      buffer := [];
      lines)

let close_unlocked () =
  (match !out with
  | Some oc ->
    out := None;
    close_out oc
  | None -> ());
  sink := buffer_write

let close () = locked close_unlocked

let open_file path =
  locked (fun () ->
      close_unlocked ();
      let oc = open_out path in
      out := Some oc;
      sink :=
        fun line ->
          output_string oc line;
          output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* Per-domain capture                                                  *)
(* ------------------------------------------------------------------ *)

(* When a capture buffer is installed in this domain, emissions land
   there instead of the global sink — no lock, no cross-domain
   interleaving. *)
let capture_key : string list ref option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let emit_line line =
  match Domain.DLS.get capture_key with
  | Some buf -> buf := line :: !buf
  | None -> locked (fun () -> !sink line)

let capture f =
  let buf = ref [] in
  let saved = Domain.DLS.get capture_key in
  Domain.DLS.set capture_key (Some buf);
  let finish () = Domain.DLS.set capture_key saved in
  match f () with
  | v ->
    finish ();
    (v, List.rev !buf)
  | exception exn ->
    finish ();
    raise exn

(* Replayed lines re-enter through [emit_line], so a capture of a replay
   nests the way span scopes do. *)
let replay lines = List.iter emit_line lines

let emit json = emit_line (Json.to_string json)

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)
(* ------------------------------------------------------------------ *)

(* Dump records produced by the flight recorder flow into the trace
   stream only when collection is on; the recorder itself works either
   way. Registered here (not in recorder.ml) to keep the dependency
   one-way. *)
let () = Recorder.set_emitter (fun json -> if enabled () then emit json)

(* [fields] is a thunk: payloads are only built when a sink (trace
   stream or flight recorder) will actually consume them, so call sites
   pay a closure, not a JSON tree, when nobody is listening. *)
let event ~name ~sim fields =
  let trace = enabled () in
  let record = Recorder.enabled () in
  if trace || record then begin
    let json =
      Json.Obj
        [
          ("type", Json.String "event");
          ("name", Json.String name);
          ("sim_s", Json.Float sim);
          ("fields", Json.Obj (fields ()));
        ]
    in
    if record then Recorder.note_event ~name ~sim json;
    if trace then emit json
  end

let debug ~name fields =
  if enabled () then
    emit
      (Json.Obj
         [
           ("type", Json.String "debug");
           ("name", Json.String name);
           ("fields", Json.Obj fields);
         ])

(* Durations must come from a clock that NTP steps can't move backwards
   or inflate, so [now] is monotonic (ns since an arbitrary origin). *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let span_hist name = Metrics.histogram ("span." ^ name)

(* Span nesting depth is per-domain: concurrent tasks each carry their
   own stack of open spans. *)
let depth_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let record_span_at ~name ~depth:d ~dur_s fields =
  Metrics.observe (span_hist name) dur_s;
  emit
    (Json.Obj
       [
         ("type", Json.String "span");
         ("name", Json.String name);
         ("dur_s", Json.Float dur_s);
         ("depth", Json.Int d);
         ("fields", Json.Obj fields);
       ])

let record_span ~name ~dur_s fields =
  if enabled () then
    record_span_at ~name ~depth:!(Domain.DLS.get depth_key) ~dur_s fields

let span ~name f =
  if not (enabled ()) then f ()
  else begin
    let depth = Domain.DLS.get depth_key in
    let d = !depth in
    depth := d + 1;
    let t0 = now () in
    match f () with
    | v ->
      depth := d;
      record_span_at ~name ~depth:d ~dur_s:(now () -. t0) [];
      v
    | exception exn ->
      depth := d;
      record_span_at ~name ~depth:d ~dur_s:(now () -. t0)
        [ ("raised", Json.String (Printexc.to_string exn)) ];
      raise exn
  end

let dump_metrics () = if enabled () then List.iter emit (Metrics.dump ())

(* ------------------------------------------------------------------ *)
(* Scoped collection                                                   *)
(* ------------------------------------------------------------------ *)

let with_collection ?file f =
  let was_enabled = enabled () in
  Metrics.reset_all ();
  (match file with Some path -> open_file path | None -> buffer_sink ());
  enable ();
  let finish () =
    dump_metrics ();
    close ();
    if not was_enabled then disable ()
  in
  match f () with
  | v ->
    finish ();
    v
  | exception exn ->
    finish ();
    raise exn
