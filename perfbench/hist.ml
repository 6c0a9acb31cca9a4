(* A histogram of durations in seconds: log buckets 0.5% wide from 10 ns
   to about a day, stored sparsely. Memory grows with the number of
   distinct buckets met, not with the number of samples, so a run's peak
   RSS does not grow with its length, and the hundreds of per-slice
   histograms a run keeps stay small.

   A percentile is the nearest-rank sample's bucket, placed inside the
   bucket by its rank among the bucket's samples, so it reads to within
   0.5% of the exact sample and still moves continuously between runs. *)

let n_buckets = 6000

let base = 1e-8

let ratio = 1.005

let log_ratio = log ratio

type t = { counts : (int, int) Hashtbl.t; mutable n : int }

let create () = { counts = Hashtbl.create 16; n = 0 }

let index d =
  if d <= base then 0
  else min (n_buckets - 1) (int_of_float (log (d /. base) /. log_ratio))

let bump t i c =
  match Hashtbl.find t.counts i with
  | k -> Hashtbl.replace t.counts i (k + c)
  | exception Not_found -> Hashtbl.add t.counts i c

let add t d =
  bump t (index d) 1;
  t.n <- t.n + 1

let merge_into ~dst src =
  Hashtbl.iter (bump dst) src.counts;
  dst.n <- dst.n + src.n

let lower i = base *. (ratio ** float_of_int i)

(* Nearest-rank percentile, seconds; nan when empty. *)
let percentile t p =
  if t.n = 0 then Float.nan
  else begin
    let rank = max 1 (min t.n (int_of_float (ceil (p *. float_of_int t.n)))) in
    let buckets = List.sort compare (Hashtbl.fold (fun i c acc -> (i, c) :: acc) t.counts []) in
    let rec find before = function
      | (_, c) :: rest when before + c < rank -> find (before + c) rest
      | (i, c) :: _ ->
        let lo = lower i in
        lo +. ((lower (i + 1) -. lo) *. ((float_of_int (rank - before) -. 0.5) /. float_of_int c))
      | [] -> assert false
    in
    find 0 buckets
  end
