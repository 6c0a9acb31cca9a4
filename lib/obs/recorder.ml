let flag = Atomic.make false

let enabled () = Atomic.get flag

let cap = Atomic.make 64

let capacity () = Atomic.get cap

(* Dump records retained in memory; later dumps are still emitted. *)
let max_dumps = 64

(* ------------------------------------------------------------------ *)
(* Per-domain ring                                                     *)
(* ------------------------------------------------------------------ *)

type ring = {
  slots : Json.t array;
  mutable head : int;  (* Next write position. *)
  mutable count : int; (* min count capacity = live entries. *)
}

(* The ring is created lazily at the first [note] in each domain, sized
   to the capacity in force then; a capacity change takes effect in a
   domain at its next note after [clear] (rings are rebuilt when the
   size no longer matches). *)
let ring_key : ring option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current_ring () =
  let cell = Domain.DLS.get ring_key in
  let want = capacity () in
  match !cell with
  | Some r when Array.length r.slots = want -> r
  | _ ->
    let r = { slots = Array.make want Json.Null; head = 0; count = 0 } in
    cell := Some r;
    r

let note json =
  if enabled () then begin
    let r = current_ring () in
    let n = Array.length r.slots in
    r.slots.(r.head) <- json;
    r.head <- (r.head + 1) mod n;
    if r.count < n then r.count <- r.count + 1
  end

(* ------------------------------------------------------------------ *)
(* Dump triggers                                                       *)
(* ------------------------------------------------------------------ *)

(* Event-name prefixes whose arrival snapshots the window. The list is
   tiny (a handful of registrations at module-init time) and only
   scanned when the recorder is enabled, so a linear scan per noted
   event is fine. Registrations are process-global and idempotent. *)
let triggers_mutex = Mutex.create ()

let trigger_list : (string * string option) list ref = ref []

let register_trigger ?suffix_field prefix =
  if prefix = "" then invalid_arg "Recorder.register_trigger: empty prefix";
  Mutex.lock triggers_mutex;
  if not (List.mem (prefix, suffix_field) !trigger_list) then
    trigger_list := !trigger_list @ [ (prefix, suffix_field) ];
  Mutex.unlock triggers_mutex

let triggers () =
  Mutex.lock triggers_mutex;
  let l = !trigger_list in
  Mutex.unlock triggers_mutex;
  l

let trigger_match name =
  List.find_opt (fun (p, _) -> String.starts_with ~prefix:p name) (triggers ())

let window () =
  match !(Domain.DLS.get ring_key) with
  | None -> []
  | Some r ->
    let n = Array.length r.slots in
    let start = (r.head - r.count + n) mod n in
    List.init r.count (fun i -> r.slots.((start + i) mod n))

(* ------------------------------------------------------------------ *)
(* Dumps                                                               *)
(* ------------------------------------------------------------------ *)

let dumps_mutex = Mutex.create ()

let retained : Json.t list ref = ref [] (* Newest first. *)

let taken = ref 0

let emitter : (Json.t -> unit) ref = ref (fun _ -> ())

let set_emitter f = emitter := f

let dump ~reason ~sim =
  if enabled () then begin
    let events = window () in
    let record =
      Json.Obj
        [
          ("type", Json.String "dump");
          ("name", Json.String "recorder.dump");
          ("sim_s", Json.Float sim);
          ( "fields",
            Json.Obj
              [
                ("reason", Json.String reason);
                ("events", Json.Int (List.length events));
                ("window", Json.List events);
              ] );
        ]
    in
    Mutex.lock dumps_mutex;
    incr taken;
    if !taken <= max_dumps then retained := record :: !retained;
    Mutex.unlock dumps_mutex;
    !emitter record
  end

(* The collector's feed: append the event to the ring, then — if its
   name matches a registered trigger prefix — snapshot the window (the
   triggering event is in the ring, last, by construction). The dump
   reason is the event name, refined by the trigger's suffix field when
   it names a string field of the event (e.g. the trip [kind]). *)
let note_event ~name ~sim json =
  if enabled () then begin
    note json;
    match trigger_match name with
    | None -> ()
    | Some (_, suffix_field) ->
      let reason =
        match suffix_field with
        | None -> name
        | Some field -> (
          match
            Option.bind
              (Option.bind (Json.member "fields" json) (Json.member field))
              Json.to_string_opt
          with
          | Some v -> name ^ ":" ^ v
          | None -> name)
      in
      dump ~reason ~sim
  end

let dumps () =
  Mutex.lock dumps_mutex;
  let l = List.rev !retained in
  Mutex.unlock dumps_mutex;
  l

let dump_count () =
  Mutex.lock dumps_mutex;
  let n = !taken in
  Mutex.unlock dumps_mutex;
  n

let clear () =
  Domain.DLS.get ring_key := None;
  Mutex.lock dumps_mutex;
  retained := [];
  taken := 0;
  Mutex.unlock dumps_mutex

let enable ?(capacity = 64) () =
  if capacity < 1 then invalid_arg "Recorder.enable: capacity < 1";
  Atomic.set cap capacity;
  Atomic.set flag true

let disable () = Atomic.set flag false
