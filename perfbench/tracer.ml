(* In-memory span recorder for the traced run.

   A span has a name, a start and an end on the monotonic clock, the
   span that caused it, and the id of the unit of work (a suite cell, a
   fleet run, a server-loop turn, a sweep point) it belongs to. Every
   span feeds a per-name aggregate: count, total and self time, and a
   {!Hist} of durations for percentiles. The first [max_records] spans
   are also kept verbatim and written out when the benchmark ends.

   State is per domain, so board steps on pool workers never contend;
   [stats] merges the domains once the measurement is over.

   Self time is a span's duration minus the part of it covered by child
   spans on the same domain. A span a pool worker runs on behalf of a
   parent on another domain overlaps that parent in time, so it stays
   out of the parent's self-time arithmetic and counts as busy time
   instead. On the main domain, the layer self times plus the unit
   roots' own self time therefore add up to the traced wall exactly. *)

let on = ref false

type record = {
  id : int;
  name : string;
  parent : int;
  run : int;
  start : float;
  stop : float;
  domain : int;
}

type agg = {
  mutable count : int;
  mutable total : float;
  mutable self : float;
  hist : Hist.t;
}

type frame = { f_id : int; f_start : float; mutable f_child : float }

type domain_state = {
  main : bool;
  dom : int;
  aggs : (string, agg) Hashtbl.t;
  mutable stack : frame list;
  mutable adopted : int; (* Parent on another domain, while [stack] is empty. *)
  mutable run : int;
  mutable records : record list;
}

let registry = ref []

let registry_mutex = Mutex.create ()

let next_id = Atomic.make 1

let max_records = 100_000

let kept = Atomic.make 0

let dropped = Atomic.make 0

let main_domain = (Domain.self () :> int)

let key =
  Domain.DLS.new_key (fun () ->
      let dom = (Domain.self () :> int) in
      let st =
        {
          main = dom = main_domain;
          dom;
          aggs = Hashtbl.create 32;
          stack = [];
          adopted = 0;
          run = 0;
          records = [];
        }
      in
      Mutex.lock registry_mutex;
      registry := st :: !registry;
      Mutex.unlock registry_mutex;
      st)

let agg_of st name =
  match Hashtbl.find_opt st.aggs name with
  | Some a -> a
  | None ->
    let a =
      { count = 0; total = 0.0; self = 0.0; hist = Hist.create () }
    in
    Hashtbl.add st.aggs name a;
    a

let span name f =
  if not !on then f ()
  else begin
    let st = Domain.DLS.get key in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = match st.stack with p :: _ -> p.f_id | [] -> st.adopted in
    let fr = { f_id = id; f_start = Obs.Collector.now (); f_child = 0.0 } in
    st.stack <- fr :: st.stack;
    let finish () =
      let stop = Obs.Collector.now () in
      let d = stop -. fr.f_start in
      st.stack <- List.tl st.stack;
      (match st.stack with p :: _ -> p.f_child <- p.f_child +. d | [] -> ());
      let a = agg_of st name in
      a.count <- a.count + 1;
      a.total <- a.total +. d;
      a.self <- a.self +. (d -. fr.f_child);
      Hist.add a.hist d;
      if Atomic.fetch_and_add kept 1 < max_records then
        st.records <-
          { id; name; parent; run = st.run; start = fr.f_start; stop;
            domain = st.dom }
          :: st.records
      else Atomic.incr dropped
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let set_run r = if !on then (Domain.DLS.get key).run <- r

let current () =
  let st = Domain.DLS.get key in
  ((match st.stack with p :: _ -> p.f_id | [] -> st.adopted), st.run)

(* Run [f] as a child of [context] (a span on another domain, from
   {!current}). On a domain that already has open spans, [f] nests under
   them as usual. *)
let adopt (parent, run) f =
  if not !on then f ()
  else begin
    let st = Domain.DLS.get key in
    if st.stack <> [] then f ()
    else begin
      let a0 = st.adopted and r0 = st.run in
      st.adopted <- parent;
      st.run <- run;
      Fun.protect
        ~finally:(fun () ->
          st.adopted <- a0;
          st.run <- r0)
        f
    end
  end

(* ------------------------------------------------------------------ *)
(* Reading the aggregates                                              *)
(* ------------------------------------------------------------------ *)

type stats = { n : int; total_s : float; self_s : float; hist : Hist.t }

(* Merged aggregate of [name] across domains; [main_only] keeps the main
   domain's spans alone, the ones the closure arithmetic covers. *)
let stats ?(main_only = false) name =
  List.fold_left
    (fun acc st ->
      match Hashtbl.find_opt st.aggs name with
      | Some a when st.main || not main_only ->
        Hist.merge_into ~dst:acc.hist a.hist;
        {
          acc with
          n = acc.n + a.count;
          total_s = acc.total_s +. a.total;
          self_s = acc.self_s +. a.self;
        }
      | _ -> acc)
    { n = 0; total_s = 0.0; self_s = 0.0; hist = Hist.create () }
    !registry

let names () =
  List.sort_uniq compare
    (List.concat_map
       (fun st -> Hashtbl.fold (fun k _ acc -> k :: acc) st.aggs [])
       !registry)

(* Percentile of the span durations, seconds; 0 when the span never
   ran. *)
let percentile s p = if s.n = 0 then 0.0 else Hist.percentile s.hist p

let mean s = if s.n = 0 then 0.0 else s.total_s /. float_of_int s.n

let spans_recorded () = Atomic.get kept

let write path =
  let all =
    List.sort
      (fun a b -> compare a.id b.id)
      (List.concat_map (fun st -> st.records) !registry)
  in
  let origin = List.fold_left (fun m r -> Float.min m r.start) infinity all in
  let line j = Obs.Json.to_string j ^ "\n" in
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun r ->
          output_string oc
            (line
               (Obs.Json.Obj
                  [
                    ("id", Obs.Json.Int r.id);
                    ("name", Obs.Json.String r.name);
                    ("parent", Obs.Json.Int r.parent);
                    ("run", Obs.Json.Int r.run);
                    ("start_s", Obs.Json.Float (r.start -. origin));
                    ("end_s", Obs.Json.Float (r.stop -. origin));
                    ("domain", Obs.Json.Int r.domain);
                  ])))
        all;
      output_string oc
        (line
           (Obs.Json.Obj
              [
                ("type", Obs.Json.String "summary");
                ("spans_written", Obs.Json.Int (List.length all));
                ("spans_dropped", Obs.Json.Int (Atomic.get dropped));
              ])))
