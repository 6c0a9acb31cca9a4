type counter = { c_name : string; mutable count : int }

type histogram = {
  h_name : string;
  hist : Stats.Hist.t;
  mutable total : float;
  mutable min_v : float;
  mutable max_v : float;
}

(* The enumeration list for [dump]; output is sorted by name there, so
   order here is immaterial. *)
let counters : (string, counter) Hashtbl.t = Hashtbl.create 16
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16
let order : [ `C of counter | `H of histogram ] list ref = ref []

(* One mutex over registries and metric cells: registration, updates and
   dumps may come from any domain (spans fire inside pool workers).
   Observation cost only matters when collection is enabled, and the
   simulation work per observation dwarfs an uncontended lock. *)
let mutex = Mutex.create ()

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let counter name =
  locked (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> c
      | None ->
        let c = { c_name = name; count = 0 } in
        Hashtbl.add counters name c;
        order := `C c :: !order;
        c)

let incr ?(by = 1) c = locked (fun () -> c.count <- c.count + by)

let count c = c.count

let buckets =
  (* 1 us .. 1000 s, four bounds per decade. *)
  Array.init 37 (fun i -> 1e-6 *. (10.0 ** (Float.of_int i /. 4.0)))

let histogram name =
  locked (fun () ->
      match Hashtbl.find_opt histograms name with
      | Some h -> h
      | None ->
        let h =
          {
            h_name = name;
            hist = Stats.Hist.create ~buckets;
            total = 0.0;
            min_v = infinity;
            max_v = neg_infinity;
          }
        in
        Hashtbl.add histograms name h;
        order := `H h :: !order;
        h)

let observe h v =
  locked (fun () ->
      Stats.Hist.observe h.hist v;
      h.total <- h.total +. v;
      if v < h.min_v then h.min_v <- v;
      if v > h.max_v then h.max_v <- v)

let percentile h q = Stats.Hist.percentile h.hist ~lo:h.min_v ~hi:h.max_v q

type summary = {
  count : int;
  total : float;
  mean : float;
  min_v : float;
  max_v : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let summarize h =
  let n = Stats.Hist.count h.hist in
  if n = 0 then
    {
      count = 0;
      total = 0.0;
      mean = Float.nan;
      min_v = Float.nan;
      max_v = Float.nan;
      p50 = Float.nan;
      p90 = Float.nan;
      p99 = Float.nan;
    }
  else
    {
      count = n;
      total = h.total;
      mean = h.total /. Float.of_int n;
      min_v = h.min_v;
      max_v = h.max_v;
      p50 = percentile h 0.5;
      p90 = percentile h 0.9;
      p99 = percentile h 0.99;
    }

let reset_all () =
  locked (fun () ->
      Hashtbl.iter (fun _ (c : counter) -> c.count <- 0) counters;
      Hashtbl.iter
        (fun _ h ->
          Stats.Hist.clear h.hist;
          h.total <- 0.0;
          h.min_v <- infinity;
          h.max_v <- neg_infinity)
        histograms)

(* Dumps sort by name (then type, for the pathological case of one name
   registered as two kinds) so snapshots diff stably across runs and job
   counts — registration order depends on which code path touched a
   metric first. *)
let entry_key = function
  | `C (c : counter) -> (c.c_name, 0)
  | `H (h : histogram) -> (h.h_name, 1)

let dump () =
  locked @@ fun () ->
  List.filter_map
    (function
      | `C (c : counter) ->
        if c.count = 0 then None
        else
          Some
            (Json.Obj
               [
                 ("type", Json.String "counter");
                 ("name", Json.String c.c_name);
                 ("value", Json.Int c.count);
               ])
      | `H h ->
        if Stats.Hist.count h.hist = 0 then None
        else begin
          let s = summarize h in
          Some
            (Json.Obj
               [
                 ("type", Json.String "histogram");
                 ("name", Json.String h.h_name);
                 ("count", Json.Int s.count);
                 ("total", Json.Float s.total);
                 ("mean", Json.Float s.mean);
                 ("min", Json.Float s.min_v);
                 ("max", Json.Float s.max_v);
                 ("p50", Json.Float s.p50);
                 ("p90", Json.Float s.p90);
                 ("p99", Json.Float s.p99);
               ])
        end)
    (List.sort (fun a b -> compare (entry_key a) (entry_key b)) !order)
