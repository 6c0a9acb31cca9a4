(* The serving wire protocol: newline-delimited JSON over a stream
   socket. One request per line in, one or more response lines out.
   Parsing is total — every malformed line maps to an [Error] the
   session answers with a non-fatal error record, never an exception.
   A field that is present must be one the request knows and have its
   type and range, or the error names it; only an absent field takes
   its default. *)

module Json = Obs.Json

let version = 1

type drift = {
  start : float;
  duration : float;
  severity : float; (* Fraction of the certified guardband. *)
  kind : string; (* power_gain | thermal_gain | perf_gain. *)
}

type request =
  | Hello of { client : string option }
  | Configure of {
      scheme : string;
      app : string;
      adapt : bool;
      drift : drift option;
    }
  | Step of { count : int }
  | Health
  | Drain
  | Close

let drift_kinds = [ "power_gain"; "thermal_gain"; "perf_gain" ]

let ( let* ) = Result.bind

(* What a field must be: the check that converts an accepted JSON value,
   and the phrase an error names it by. *)
type 'a kind = { conv : Json.t -> 'a option; expect : string }

let string = { conv = Json.to_string_opt; expect = "a string" }

let boolean =
  { conv = (function Json.Bool b -> Some b | _ -> None); expect = "a boolean" }

let satisfying expect read ok =
  let conv v = Option.bind (read v) (fun x -> if ok x then Some x else None) in
  { conv; expect }

let number expect ok = satisfying expect Json.to_float_opt ok

(* Field [name] of request [req]: [None] when absent, its value when [k]
   accepts it, and otherwise an error naming the field. *)
let field req name k json =
  match Json.member name json with
  | None -> Ok None
  | Some v -> (
    match k.conv v with
    | Some _ as x -> Ok x
    | None -> Error (Printf.sprintf "%s.%s must be %s" req name k.expect))

(* Every field of [json] must be one of [known]: a retired or misspelt
   field is an error naming it, not a silent default. *)
let only req known json =
  match json with
  | Json.Obj kvs -> (
    match List.find_opt (fun (k, _) -> not (List.mem k known)) kvs with
    | Some (k, _) -> Error (Printf.sprintf "%s has no field %S" req k)
    | None -> Ok ())
  | _ -> Ok ()

let required req name k json =
  let* v = field req name k json in
  Option.to_result v ~none:(Printf.sprintf "%s needs a %S" req name)

let optional req name k ~default json =
  Result.map (Option.value ~default) (field req name k json)

(* Drift severity is accepted in (0, 10], ten guardbands; the fault
   profiles use 0.75 and 2.5. Measured by draining a yukta session on
   blackscholes with the drift starting at 5 s: at severities 10 and 100
   every frame stays finite for all three kinds, while a power_gain
   drift of 1e5 turns 5970 of 6000 frames' powers and temperature into
   null (non-finite), and an infinite one (1e400 parses as infinity)
   every frame from the drift's start. *)
let severity_kind =
  number "a number in (0, 10]" (fun x -> x > 0.0 && x <= 10.0)

let parse_drift d =
  let* () = only "drift" [ "start"; "severity"; "duration"; "kind" ] d in
  let* start =
    required "drift" "start"
      (number "a finite number >= 0" (fun x -> x >= 0.0 && Float.is_finite x))
      d
  in
  let* severity = required "drift" "severity" severity_kind d in
  let* duration =
    optional "drift" "duration"
      (number "a number > 0" (fun x -> x > 0.0))
      ~default:Float.infinity d
  in
  let* kind =
    optional "drift" "kind"
      (satisfying
         ("one of " ^ String.concat ", " drift_kinds)
         Json.to_string_opt
         (fun k -> List.mem k drift_kinds))
      ~default:"power_gain" d
  in
  Ok { start; duration; severity; kind }

let request_of_json json =
  match Json.member "type" json with
  | None -> Error "missing \"type\""
  | Some (Json.String "hello") ->
    let* () = only "hello" [ "type"; "client" ] json in
    let* client = field "hello" "client" string json in
    Ok (Hello { client })
  | Some (Json.String "configure") ->
    let* () =
      only "configure" [ "type"; "scheme"; "app"; "adapt"; "drift" ] json
    in
    let* scheme = required "configure" "scheme" string json in
    let* app = optional "configure" "app" string ~default:"blackscholes" json in
    let* adapt = optional "configure" "adapt" boolean ~default:false json in
    let* drift =
      field "configure" "drift"
        { conv = (function Json.Obj _ as d -> Some d | _ -> None);
          expect = "an object" }
        json
    in
    let* drift =
      match drift with
      | None -> Ok None
      | Some d -> Result.map Option.some (parse_drift d)
    in
    Ok (Configure { scheme; app; adapt; drift })
  | Some (Json.String "step") ->
    let* () = only "step" [ "type"; "count" ] json in
    let* count =
      optional "step" "count"
        (satisfying "an integer >= 1" Json.to_int_opt (fun n -> n >= 1))
        ~default:1 json
    in
    Ok (Step { count })
  | Some (Json.String "health") ->
    let* () = only "health" [ "type" ] json in
    Ok Health
  | Some (Json.String "drain") ->
    let* () = only "drain" [ "type" ] json in
    Ok Drain
  | Some (Json.String "close") ->
    let* () = only "close" [ "type" ] json in
    Ok Close
  | Some (Json.String other) ->
    Error (Printf.sprintf "unknown request type %S" other)
  | Some _ -> Error "\"type\" must be a string"

let request_of_line line =
  match Json.of_string line with
  | json -> request_of_json json
  | exception Json.Parse_error msg -> Error ("malformed JSON: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

let line json = Json.to_string json

let welcome () =
  line
    (Json.Obj
       [
         ("type", Json.String "welcome");
         ("server", Json.String "yukta");
         ("version", Json.Int version);
         ( "schemes",
           Json.List
             (List.map
                (fun (i : Yukta.Schemes.info) -> Json.String i.Yukta.Schemes.key)
                Yukta.Schemes.all) );
       ])

let configured ~session ~scheme ~layers ~adapt =
  line
    (Json.Obj
       [
         ("type", Json.String "configured");
         ("session", Json.Int session);
         ("scheme", Json.String scheme);
         ("layers", Json.List (List.map (fun l -> Json.String l) layers));
         ("adapt", Json.Bool adapt);
       ])

let error ?(fatal = false) msg =
  line
    (Json.Obj
       [
         ("type", Json.String "error");
         ("message", Json.String msg);
         ("fatal", Json.Bool fatal);
       ])

let busy ~retry_after_ms =
  line
    (Json.Obj
       [
         ("type", Json.String "busy");
         ("retry_after_ms", Json.Int retry_after_ms);
       ])

let closed () = line (Json.Obj [ ("type", Json.String "closed") ])

let summary_fields (m : Board.Xu3.metrics) ~completed =
  [
    ("execution_time_s", Json.Float m.Board.Xu3.execution_time);
    ("energy_j", Json.Float m.Board.Xu3.total_energy);
    ("energy_delay_js", Json.Float m.Board.Xu3.energy_delay);
    ("trips", Json.Int m.Board.Xu3.trips);
    ("completed", Json.Bool completed);
  ]

let frame ~epoch ~sim ~(o : Board.Xu3.outputs) ~(config : Board.Xu3.config)
    ~(placement : Board.Xu3.placement) ~done_ =
  line
    (Json.Obj
       [
         ("type", Json.String "frame");
         ("epoch", Json.Int epoch);
         ("sim_s", Json.Float sim);
         ( "observation",
           Json.Obj
             [
               ("bips", Json.Float o.Board.Xu3.bips);
               ("power_big", Json.Float o.Board.Xu3.power_big);
               ("power_little", Json.Float o.Board.Xu3.power_little);
               ("temperature", Json.Float o.Board.Xu3.temperature);
               ("threads_active", Json.Int o.Board.Xu3.threads_active);
             ] );
         ( "decision",
           Json.Obj
             [
               ("big_cores", Json.Int config.Board.Xu3.big_cores);
               ("little_cores", Json.Int config.Board.Xu3.little_cores);
               ("freq_big", Json.Float config.Board.Xu3.freq_big);
               ("freq_little", Json.Float config.Board.Xu3.freq_little);
               ("threads_big", Json.Int placement.Board.Xu3.threads_big);
               ("tpc_big", Json.Float placement.Board.Xu3.tpc_big);
               ("tpc_little", Json.Float placement.Board.Xu3.tpc_little);
             ] );
         ("done", Json.Bool done_);
       ])

let end_of_run ~sim ~metrics ~completed =
  line
    (Json.Obj
       (("type", Json.String "end")
       :: ("sim_s", Json.Float sim)
       :: summary_fields metrics ~completed))

let drained ~epochs ~sim ~metrics ~completed =
  line
    (Json.Obj
       (("type", Json.String "drained")
       :: ("epochs", Json.Int epochs)
       :: ("sim_s", Json.Float sim)
       :: summary_fields metrics ~completed))

let health_snapshot health =
  line
    (Json.Obj
       [ ("type", Json.String "health"); ("health", Obs.Health.to_json health) ])

let adapt_notification ~name ~epoch ~sim fields =
  line
    (Json.Obj
       ([
          ("type", Json.String "adapt");
          ("name", Json.String name);
          ("epoch", Json.Int epoch);
          ("sim_s", Json.Float sim);
        ]
       @ fields))
