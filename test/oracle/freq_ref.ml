(* The boxed frequency response that [Ss]'s planar kernel replaced, kept
   as its oracle: (zI - A)^-1 B by complex Gaussian elimination on
   [Complex.t] (the resolvent [Cmat] used to export), then C x + D with
   [Cmat.mul] and [Cmat.add], and the full [hinf_norm] grid walk over it
   with [Svd.norm2_complex]. *)

open Linalg
open Control

let point sys w =
  match sys.Ss.domain with
  | Ss.Continuous -> { Complex.re = 0.0; im = w }
  | Ss.Discrete p -> Complex.exp { Complex.re = 0.0; im = w *. p }

let resolvent z a b =
  let n = a.Cmat.rows in
  let shifted =
    Cmat.init n n (fun i j ->
        let x = Cmat.get a i j in
        if i = j then Complex.sub z x else Complex.sub Complex.zero x)
  in
  Cmat.solve shifted b

let response sys w =
  let x =
    resolvent (point sys w) (Cmat.of_real sys.Ss.a) (Cmat.of_real sys.Ss.b)
  in
  Cmat.add (Cmat.mul (Cmat.of_real sys.Ss.c) x) (Cmat.of_real sys.Ss.d)

let log_grid lo hi points =
  let llo = log lo and lhi = log hi in
  Array.init points (fun i ->
      exp
        (llo +. ((lhi -. llo) *. Float.of_int i /. Float.of_int (points - 1))))

let hinf_norm sys =
  if not (Ss.is_stable sys) then infinity
  else if Ss.order sys = 0 then Svd.norm2 sys.Ss.d
  else begin
    let wmax =
      match sys.Ss.domain with
      | Ss.Continuous -> 1e4 *. Float.max 1.0 (Mat.norm_inf sys.Ss.a)
      | Ss.Discrete p -> Float.pi /. p
    in
    let wmin = wmax /. 1e8 in
    let eval w = Svd.norm2_complex (Cmat.to_pair (response sys w)) in
    let grid = log_grid wmin wmax 200 in
    let best_w = ref grid.(0) and best = ref 0.0 in
    Array.iter
      (fun w ->
        let v = eval w in
        if v > !best then begin
          best := v;
          best_w := w
        end)
      grid;
    let dc = Svd.norm2 (Ss.dcgain sys) in
    if dc > !best then best := dc;
    let lo = !best_w /. 3.0 and hi = !best_w *. 3.0 in
    let sub = log_grid (Float.max wmin lo) (Float.min wmax hi) 40 in
    Array.iter (fun w -> best := Float.max !best (eval w)) sub;
    !best
  end
