type entry = { kind : string; name : string; json : Json.t }

exception Bad_trace of string

let entry_of_line lineno line =
  match Json.of_string line with
  | exception Json.Parse_error msg ->
    raise (Bad_trace (Printf.sprintf "line %d: %s" lineno msg))
  | json -> (
    match
      ( Option.bind (Json.member "type" json) Json.to_string_opt,
        Option.bind (Json.member "name" json) Json.to_string_opt )
    with
    | Some kind, Some name -> { kind; name; json }
    | _ ->
      raise
        (Bad_trace
           (Printf.sprintf "line %d: record lacks \"type\"/\"name\"" lineno)))

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let entries = ref [] in
      let lineno = ref 0 in
      (try
         while true do
           let line = input_line ic in
           incr lineno;
           if String.trim line <> "" then
             entries := entry_of_line !lineno line :: !entries
         done
       with End_of_file -> ());
      List.rev !entries)

type span_stat = {
  span_name : string;
  span_count : int;
  total_s : float;
  mean_s : float;
  max_s : float;
}

type event_stat = {
  event_name : string;
  event_count : int;
  first_sim_s : float;
  last_sim_s : float;
}

type summary = {
  spans : span_stat list;
  events : event_stat list;
  metrics : entry list;
  dumps : entry list;
  lines : int;
}

let float_field key e =
  match Option.bind (Json.member key e.json) Json.to_float_opt with
  | Some f -> f
  | None -> Float.nan

let group_by_name entries =
  let tbl = Hashtbl.create 16 in
  let names = ref [] in
  List.iter
    (fun e ->
      match Hashtbl.find_opt tbl e.name with
      | Some l -> l := e :: !l
      | None ->
        Hashtbl.add tbl e.name (ref [ e ]);
        names := e.name :: !names)
    entries;
  List.rev_map (fun n -> (n, List.rev !(Hashtbl.find tbl n))) !names

let summarize entries =
  let spans, rest = List.partition (fun e -> e.kind = "span") entries in
  let events, rest = List.partition (fun e -> e.kind = "event") rest in
  let dumps, rest = List.partition (fun e -> e.kind = "dump") rest in
  let span_stats =
    group_by_name spans
    |> List.map (fun (name, es) ->
           let durs = List.map (float_field "dur_s") es in
           let total = List.fold_left ( +. ) 0.0 durs in
           let n = List.length es in
           {
             span_name = name;
             span_count = n;
             total_s = total;
             mean_s = total /. Float.of_int n;
             max_s = List.fold_left Float.max neg_infinity durs;
           })
    |> List.sort (fun a b -> Float.compare b.total_s a.total_s)
  in
  let event_stats =
    group_by_name events
    |> List.map (fun (name, es) ->
           let sims = List.map (float_field "sim_s") es in
           {
             event_name = name;
             event_count = List.length es;
             first_sim_s = List.fold_left Float.min infinity sims;
             last_sim_s = List.fold_left Float.max neg_infinity sims;
           })
    |> List.sort (fun a b -> compare b.event_count a.event_count)
  in
  { spans = span_stats; events = event_stats; metrics = rest; dumps;
    lines = List.length entries }

let dump_field key e =
  Option.bind (Json.member "fields" e.json) (Json.member key)

let render ?(counters = false) s =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "%d records\n" s.lines;
  if s.spans <> [] then begin
    pr "\nspans (wall clock)\n";
    pr "  %-32s %8s %12s %12s %12s\n" "name" "count" "total(s)" "mean(ms)"
      "max(ms)";
    List.iter
      (fun st ->
        pr "  %-32s %8d %12.4f %12.4f %12.4f\n" st.span_name st.span_count
          st.total_s (1e3 *. st.mean_s) (1e3 *. st.max_s))
      s.spans
  end;
  if s.events <> [] then begin
    pr "\nevents (simulated time)\n";
    pr "  %-32s %8s %12s %12s\n" "name" "count" "first(s)" "last(s)";
    List.iter
      (fun st ->
        pr "  %-32s %8d %12.2f %12.2f\n" st.event_name st.event_count
          st.first_sim_s st.last_sim_s)
      s.events
  end;
  if s.metrics <> [] then begin
    pr "\nmetrics\n";
    List.iter
      (fun e ->
        match e.kind with
        | "counter" ->
          pr "  counter    %-28s %d\n" e.name
            (Option.value ~default:0
               (Option.bind (Json.member "value" e.json) Json.to_int_opt))
        | "histogram" ->
          pr
            "  histogram  %-28s count %d  mean %.3g  p50 %.3g  p90 %.3g  \
             p99 %.3g  max %.3g\n"
            e.name
            (Option.value ~default:0
               (Option.bind (Json.member "count" e.json) Json.to_int_opt))
            (float_field "mean" e) (float_field "p50" e) (float_field "p90" e)
            (float_field "p99" e) (float_field "max" e)
        | k -> pr "  %-10s %-28s\n" k e.name)
      s.metrics
  end;
  if s.dumps <> [] then begin
    pr "\nrecorder dumps: %d\n" (List.length s.dumps);
    if counters then
      List.iter
        (fun e ->
          pr "  %10.2fs  %-24s %d events\n" (float_field "sim_s" e)
            (Option.value ~default:"?"
               (Option.bind (dump_field "reason" e) Json.to_string_opt))
            (Option.value ~default:0
               (Option.bind (dump_field "events" e) Json.to_int_opt)))
        s.dumps
  end;
  if counters then begin
    let cs = List.filter (fun e -> e.kind = "counter") s.metrics in
    if cs <> [] then begin
      pr "\nfinal counters\n";
      List.iter
        (fun e ->
          pr "  %-32s %d\n" e.name
            (Option.value ~default:0
               (Option.bind (Json.member "value" e.json) Json.to_int_opt)))
        cs
    end
  end;
  Buffer.contents buf
