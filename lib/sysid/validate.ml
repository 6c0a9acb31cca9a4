open Linalg

let fit_percent ~actual ~predicted =
  if Array.length actual <> Array.length predicted then
    invalid_arg "Validate.fit_percent: length mismatch";
  let len = Array.length actual in
  if len = 0 then invalid_arg "Validate.fit_percent: empty record";
  let ny = Vec.dim actual.(0) in
  Vec.init ny (fun c ->
      let mean =
        Array.fold_left (fun acc v -> acc +. v.(c)) 0.0 actual
        /. Float.of_int len
      in
      let err = ref 0.0 and dev = ref 0.0 in
      for t = 0 to len - 1 do
        let e = actual.(t).(c) -. predicted.(t).(c) in
        err := !err +. (e *. e);
        let d = actual.(t).(c) -. mean in
        dev := !dev +. (d *. d)
      done;
      if !dev <= 1e-300 then if !err <= 1e-300 then 100.0 else 0.0
      else 100.0 *. (1.0 -. Float.sqrt (!err /. !dev)))

let autocorrelation series n =
  let len = Vec.dim series in
  if len < n + 2 then invalid_arg "Validate.autocorrelation: series too short";
  let mean = Array.fold_left ( +. ) 0.0 series /. Float.of_int len in
  let centered = Vec.map (fun x -> x -. mean) series in
  let denom = Vec.dot centered centered in
  Vec.init n (fun k ->
      let lag = k + 1 in
      let acc = ref 0.0 in
      for t = lag to len - 1 do
        acc := !acc +. (centered.(t) *. centered.(t - lag))
      done;
      if denom <= 1e-300 then 0.0 else !acc /. denom)

let whiteness series =
  let lags = 10 in
  let ac = autocorrelation series lags in
  let band = 1.96 /. Float.sqrt (Float.of_int (Vec.dim series)) in
  let inside = Array.fold_left (fun n r -> if Float.abs r <= band then n + 1 else n) 0 ac in
  Float.of_int inside /. Float.of_int lags

let channel record i = Array.map (fun v -> v.(i)) record
