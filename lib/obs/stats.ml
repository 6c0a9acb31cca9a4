(* Mergeable per-owner statistics: Welford mean/variance and exact
   fixed-bucket histograms. No locks — one owner at a time. *)

module Welford = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;       (* Sum of squared deviations from the mean. *)
    mutable min_v : float;
    mutable max_v : float;
  }

  let create () =
    { n = 0; mean = 0.0; m2 = 0.0; min_v = infinity; max_v = neg_infinity }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. Float.of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min_v then t.min_v <- x;
    if x > t.max_v then t.max_v <- x

  let mean t = if t.n = 0 then Float.nan else t.mean

  let max_v t = t.max_v

  (* Chan et al. pairwise update: exact in the counts, stable in the
     moments. An empty side is an identity. *)
  let merge_into ~into src =
    if src.n <> 0 then
      if into.n = 0 then begin
        into.n <- src.n;
        into.mean <- src.mean;
        into.m2 <- src.m2;
        into.min_v <- src.min_v;
        into.max_v <- src.max_v
      end
      else begin
        let na = Float.of_int into.n and nb = Float.of_int src.n in
        let n = na +. nb in
        let delta = src.mean -. into.mean in
        into.mean <- into.mean +. (delta *. nb /. n);
        into.m2 <- into.m2 +. src.m2 +. (delta *. delta *. na *. nb /. n);
        into.n <- into.n + src.n;
        if src.min_v < into.min_v then into.min_v <- src.min_v;
        if src.max_v > into.max_v then into.max_v <- src.max_v
      end

  let to_json t =
    if t.n = 0 then
      Json.Obj
        [
          ("count", Json.Int 0);
          ("mean", Json.Float 0.0);
          ("std", Json.Float 0.0);
          ("min", Json.Float 0.0);
          ("max", Json.Float 0.0);
        ]
    else
      Json.Obj
        [
          ("count", Json.Int t.n);
          ("mean", Json.Float t.mean);
          (* Population standard deviation: divides by [n]. *)
          ("std", Json.Float (Float.sqrt (t.m2 /. Float.of_int t.n)));
          ("min", Json.Float t.min_v);
          ("max", Json.Float t.max_v);
        ]
end

module Hist = struct
  type t = {
    bounds : float array;     (* Strictly increasing upper bounds. *)
    slots : int array;        (* length bounds + 1 (overflow). *)
    mutable n : int;
  }

  let validate bounds =
    if Array.length bounds = 0 then
      invalid_arg "Stats.Hist.create: empty bucket array";
    for i = 1 to Array.length bounds - 1 do
      if bounds.(i) <= bounds.(i - 1) then
        invalid_arg "Stats.Hist.create: buckets must be strictly increasing"
    done

  let create ~buckets =
    validate buckets;
    let bounds = Array.copy buckets in
    { bounds; slots = Array.make (Array.length bounds + 1) 0; n = 0 }

  (* First upper bound >= v, by binary search; length means overflow. *)
  let slot_index t v =
    let nb = Array.length t.bounds in
    let lo = ref 0 and hi = ref nb in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.bounds.(mid) >= v then hi := mid else lo := mid + 1
    done;
    !lo

  let observe t v =
    let i = slot_index t v in
    t.slots.(i) <- t.slots.(i) + 1;
    t.n <- t.n + 1

  let count t = t.n

  let percentile t ~lo ~hi q =
    if t.n = 0 then Float.nan
    else begin
      let q = Float.max 0.0 (Float.min 1.0 q) in
      let rank = q *. Float.of_int t.n in
      let nb = Array.length t.bounds in
      let result = ref hi in
      let cum = ref 0 and stop = ref false in
      let i = ref 0 in
      while (not !stop) && !i <= nb do
        let c = t.slots.(!i) in
        if c > 0 then begin
          let prev = Float.of_int !cum in
          cum := !cum + c;
          if Float.of_int !cum >= rank then begin
            let b_lo = if !i = 0 then lo else Float.max lo t.bounds.(!i - 1) in
            let b_hi = if !i = nb then hi else Float.min hi t.bounds.(!i) in
            let frac = (rank -. prev) /. Float.of_int c in
            result := b_lo +. (frac *. (b_hi -. b_lo));
            stop := true
          end
        end;
        i := !i + 1
      done;
      !result
    end

  let clear t =
    Array.fill t.slots 0 (Array.length t.slots) 0;
    t.n <- 0

  let merge_into ~into src =
    if into.bounds <> src.bounds then
      invalid_arg "Stats.Hist.merge_into: bucket layouts differ";
    Array.iteri (fun i c -> into.slots.(i) <- into.slots.(i) + c) src.slots;
    into.n <- into.n + src.n

  let to_json t =
    Json.Obj
      [
        ( "buckets",
          Json.List
            (Array.to_list (Array.map (fun b -> Json.Float b) t.bounds)) );
        ( "counts",
          Json.List (Array.to_list (Array.map (fun c -> Json.Int c) t.slots))
        );
        ("count", Json.Int t.n);
      ]
end
