(* Online controller-health accumulators. See health.mli for the model;
   the one design constraint worth restating here is that every update
   is pure observation of simulated-time data — nothing below may feed
   back into the run. *)

let ewma_alpha = 0.05

type layer = {
  label : string;
  mutable decisions : int;
  mutable saturated : int;
  mutable ewma : float;
  mutable ewma_set : bool; (* First sample seeds the EWMA. *)
  err : Stats.Welford.t;
}

type channel = {
  cname : string;
  limit : float;
  trip : float;
  mutable worst : float; (* Max guardband fraction seen; -inf when empty. *)
  mutable violation_s : float;
  frac_hist : Stats.Hist.t;
}

type t = {
  mutable epochs : int;
  mutable sim : float;
  mutable trip_count : int;
  mutable layers : layer list;   (* Newest first; reversed on output. *)
  mutable channels : channel list;
}

let create () =
  { epochs = 0; sim = 0.0; trip_count = 0; layers = []; channels = [] }

let layer t label =
  match List.find_opt (fun l -> String.equal l.label label) t.layers with
  | Some l -> l
  | None ->
    let l =
      {
        label;
        decisions = 0;
        saturated = 0;
        ewma = 0.0;
        ewma_set = false;
        err = Stats.Welford.create ();
      }
    in
    t.layers <- l :: t.layers;
    l

(* Guardband-fraction buckets: quartiles of the band, a 90 % "close
   call" bucket, the trip point, and the overflow slot for time spent
   past it. *)
let fraction_buckets = [| 0.0; 0.25; 0.5; 0.75; 0.9; 1.0 |]

let channel t ~name ~limit ~trip =
  if trip <= limit then invalid_arg "Health.channel: trip <= limit";
  match List.find_opt (fun c -> String.equal c.cname name) t.channels with
  | Some c ->
    if c.limit <> limit || c.trip <> trip then
      invalid_arg "Health.channel: thresholds differ for existing channel";
    c
  | None ->
    let c =
      {
        cname = name;
        limit;
        trip;
        worst = neg_infinity;
        violation_s = 0.0;
        frac_hist = Stats.Hist.create ~buckets:fraction_buckets;
      }
    in
    t.channels <- c :: t.channels;
    c

let note_decision l ~err ~saturated =
  l.decisions <- l.decisions + 1;
  if saturated then l.saturated <- l.saturated + 1;
  if l.ewma_set then l.ewma <- l.ewma +. (ewma_alpha *. (err -. l.ewma))
  else begin
    l.ewma <- err;
    l.ewma_set <- true
  end;
  Stats.Welford.add l.err err

let note_heuristic l = l.decisions <- l.decisions + 1

let observe_channel c ~value ~dt =
  let frac = (value -. c.limit) /. (c.trip -. c.limit) in
  if frac > c.worst then c.worst <- frac;
  if value > c.limit then c.violation_s <- c.violation_s +. dt;
  Stats.Hist.observe c.frac_hist frac

let note_epoch t ~dt =
  t.epochs <- t.epochs + 1;
  t.sim <- t.sim +. dt

let note_trips t n = t.trip_count <- t.trip_count + n

let epochs t = t.epochs

(* ------------------------------------------------------------------ *)
(* Merge                                                               *)
(* ------------------------------------------------------------------ *)

let merge_layer ~into:a b =
  (* EWMA is order-dependent, so the merged value is the decision-
     weighted average — approximate, but deterministic and sane. The
     Welford moments underneath are the faithful mergeable summary. *)
  let na = a.decisions and nb = b.decisions in
  if nb > 0 then begin
    if a.ewma_set && b.ewma_set then
      a.ewma <-
        ((a.ewma *. Float.of_int na) +. (b.ewma *. Float.of_int nb))
        /. Float.of_int (na + nb)
    else if b.ewma_set then begin
      a.ewma <- b.ewma;
      a.ewma_set <- true
    end;
    a.decisions <- na + nb;
    a.saturated <- a.saturated + b.saturated;
    Stats.Welford.merge_into ~into:a.err b.err
  end

let merge_channel ~into:a b =
  if a.limit <> b.limit || a.trip <> b.trip then
    invalid_arg "Health.merge_into: channel thresholds differ";
  if b.worst > a.worst then a.worst <- b.worst;
  a.violation_s <- a.violation_s +. b.violation_s;
  Stats.Hist.merge_into ~into:a.frac_hist b.frac_hist

let merge_into ~into src =
  let lb = List.rev src.layers and cb = List.rev src.channels in
  (* A fresh accumulator adopts the source's layout, so reducers can
     start from [create ()] and fold. *)
  let adopting = into.layers = [] && into.channels = [] in
  let la =
    if adopting then List.map (fun l -> layer into l.label) lb
    else List.rev into.layers
  in
  let ca =
    if adopting then
      List.map
        (fun c -> channel into ~name:c.cname ~limit:c.limit ~trip:c.trip)
        cb
    else List.rev into.channels
  in
  if
    List.length la <> List.length lb
    || List.exists2 (fun a b -> not (String.equal a.label b.label)) la lb
  then invalid_arg "Health.merge_into: layer layouts differ";
  if
    List.length ca <> List.length cb
    || List.exists2 (fun a b -> not (String.equal a.cname b.cname)) ca cb
  then invalid_arg "Health.merge_into: channel layouts differ";
  into.epochs <- into.epochs + src.epochs;
  into.sim <- into.sim +. src.sim;
  into.trip_count <- into.trip_count + src.trip_count;
  List.iter2 (fun a b -> merge_layer ~into:a b) la lb;
  List.iter2 (fun a b -> merge_channel ~into:a b) ca cb

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let saturation_duty l =
  if l.decisions = 0 then 0.0
  else Float.of_int l.saturated /. Float.of_int l.decisions

let layer_json l =
  Json.Obj
    [
      ("label", Json.String l.label);
      ("decisions", Json.Int l.decisions);
      ("saturation_duty", Json.Float (saturation_duty l));
      ("err_ewma", Json.Float (if l.ewma_set then l.ewma else 0.0));
      ("err", Stats.Welford.to_json l.err);
    ]

let channel_json c =
  Json.Obj
    [
      ("name", Json.String c.cname);
      ("limit", Json.Float c.limit);
      ("trip", Json.Float c.trip);
      ( "worst_guardband_fraction",
        Json.Float (if c.worst = neg_infinity then 0.0 else c.worst) );
      ("violation_s", Json.Float c.violation_s);
      ("fraction_hist", Stats.Hist.to_json c.frac_hist);
    ]

let to_json t =
  Json.Obj
    [
      ("epochs", Json.Int t.epochs);
      ("sim_s", Json.Float t.sim);
      ("trips", Json.Int t.trip_count);
      ("layers", Json.List (List.rev_map layer_json t.layers));
      ("channels", Json.List (List.rev_map channel_json t.channels));
    ]

let render t =
  let b = Buffer.create 512 in
  Printf.bprintf b "health: epochs=%d sim=%.3fs trips=%d\n" t.epochs t.sim
    t.trip_count;
  let layers = List.rev t.layers in
  if layers <> [] then begin
    Printf.bprintf b "  %-24s %9s %6s %10s %10s %10s\n" "layer" "decisions"
      "sat%" "err-ewma" "err-mean" "err-max";
    List.iter
      (fun l ->
        let mean = Stats.Welford.mean l.err in
        let maxv = Stats.Welford.max_v l.err in
        Printf.bprintf b "  %-24s %9d %6.1f %10.4f %10.4f %10.4f\n" l.label
          l.decisions
          (100.0 *. saturation_duty l)
          (if l.ewma_set then l.ewma else 0.0)
          (if Float.is_nan mean then 0.0 else mean)
          (if Float.is_finite maxv then maxv else 0.0))
      layers
  end;
  let channels = List.rev t.channels in
  if channels <> [] then begin
    Printf.bprintf b "  %-24s %9s %9s %10s %10s\n" "channel" "limit" "trip"
      "worst-gb" "viol-s";
    List.iter
      (fun c ->
        Printf.bprintf b "  %-24s %9.3f %9.3f %10.3f %10.3f\n" c.cname c.limit
          c.trip
          (if c.worst = neg_infinity then 0.0 else c.worst)
          c.violation_s)
      channels
  end;
  Buffer.contents b
