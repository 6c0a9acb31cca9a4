open Linalg

(* Recursive least squares over the same regressor as [Arx.fit]:

     phi(t) = [y(t-1); ...; y(t-na); u(t); ...; u(t-nb+1)]

   with parameter matrix theta (cols x ny, the batch layout) and
   covariance P (cols x cols). With [delta = 1e-6] (so P0 = delta^-1 I)
   and forgetting 1.0 this computes exactly the ridge solution
   (Phi^T Phi + delta I)^-1 Phi^T Y that [Arx.fit] solves by QR, one
   rank-one update per sample — which is what makes the batch fit the
   ground truth for the convergence property test. *)

type t = {
  na : int;
  nb : int;
  ny : int;
  nu : int;
  lambda : float;
  theta : Mat.t; (* cols x ny, batch layout. *)
  mutable p : Mat.t; (* cols x cols inverse-Gram estimate. *)
  (* History, newest first: ys.(0) = y(t-1), us.(0) = u(t-1). *)
  ys : Vec.t array;
  us : Vec.t array;
  mutable seen : int; (* Observations absorbed (history pushes). *)
  (* Scratch, reused across updates. *)
  phi : Vec.t;
  pphi : Vec.t;
  gain : Vec.t;
  err : Vec.t;
}

let cols t = (t.na * t.ny) + (t.nb * t.nu)

(* The ridge prior: P0 = delta^-1 I, [Arx.fit]'s regularizer. *)
let delta = 1e-6

let create ?(lambda = 1.0) ~na ~nb ~ny ~nu () =
  if na < 0 || nb < 1 then
    invalid_arg "Recursive.create: need na >= 0, nb >= 1";
  if ny < 1 || nu < 1 then
    invalid_arg "Recursive.create: need ny >= 1, nu >= 1";
  if lambda <= 0.0 || lambda > 1.0 then
    invalid_arg "Recursive.create: forgetting factor must be in (0, 1]";
  let c = (na * ny) + (nb * nu) in
  {
    na;
    nb;
    ny;
    nu;
    lambda;
    theta = Mat.create c ny;
    p = Mat.scalar c (1.0 /. delta);
    ys = Array.init na (fun _ -> Vec.create ny);
    us = Array.init (max 0 (nb - 1)) (fun _ -> Vec.create nu);
    seen = 0;
    phi = Vec.create c;
    pphi = Vec.create c;
    gain = Vec.create c;
    err = Vec.create ny;
  }

let warm t = t.seen >= max t.na (t.nb - 1)

(* Shift a newest-first history one slot and install [v] at the front.
   Slots are owned buffers; values are copied in, never aliased. *)
let push hist v =
  let n = Array.length hist in
  if n > 0 then begin
    let last = hist.(n - 1) in
    for i = n - 1 downto 1 do
      hist.(i) <- hist.(i - 1)
    done;
    Array.blit v 0 last 0 (Vec.dim last);
    hist.(0) <- last
  end

(* phi = [y(t-1)..y(t-na); u(t); u(t-1)..u(t-nb+1)] from history + the
   current input — same layout as [Arx.regressor]. *)
let build_regressor t ~(u : Vec.t) =
  for i = 0 to t.na - 1 do
    Array.blit t.ys.(i) 0 t.phi (i * t.ny) t.ny
  done;
  let base = t.na * t.ny in
  Array.blit u 0 t.phi base t.nu;
  for j = 1 to t.nb - 1 do
    Array.blit t.us.(j - 1) 0 t.phi (base + (j * t.nu)) t.nu
  done

let observe t ~(u : Vec.t) ~(y : Vec.t) =
  if Vec.dim u <> t.nu then invalid_arg "Recursive.observe: bad u dimension";
  if Vec.dim y <> t.ny then invalid_arg "Recursive.observe: bad y dimension";
  let result =
    if not (warm t) then None
    else begin
      build_regressor t ~u;
      let c = cols t in
      (* Prediction error with the pre-update parameters. *)
      for ch = 0 to t.ny - 1 do
        let acc = ref 0.0 in
        for k = 0 to c - 1 do
          acc := !acc +. (Mat.get t.theta k ch *. t.phi.(k))
        done;
        t.err.(ch) <- y.(ch) -. !acc
      done;
      Mat.mul_vec_into ~dst:t.pphi t.p t.phi;
      let denom = ref t.lambda in
      for k = 0 to c - 1 do
        denom := !denom +. (t.phi.(k) *. t.pphi.(k))
      done;
      for k = 0 to c - 1 do
        t.gain.(k) <- t.pphi.(k) /. !denom
      done;
      (* theta += K e^T *)
      for k = 0 to c - 1 do
        let g = t.gain.(k) in
        for ch = 0 to t.ny - 1 do
          Mat.set t.theta k ch (Mat.get t.theta k ch +. (g *. t.err.(ch)))
        done
      done;
      (* P = (P - K (P phi)^T) / lambda, re-symmetrized so rounding never
         accumulates into an asymmetric (hence possibly indefinite) P. *)
      let inv_l = 1.0 /. t.lambda in
      for r = 0 to c - 1 do
        for cc = r to c - 1 do
          let v =
            (Mat.get t.p r cc -. (t.gain.(r) *. t.pphi.(cc))) *. inv_l
          in
          let v' =
            (Mat.get t.p cc r -. (t.gain.(cc) *. t.pphi.(r))) *. inv_l
          in
          let s = 0.5 *. (v +. v') in
          Mat.set t.p r cc s;
          Mat.set t.p cc r s
        done
      done;
      let sq = ref 0.0 in
      for ch = 0 to t.ny - 1 do
        sq := !sq +. (t.err.(ch) *. t.err.(ch))
      done;
      Some (Float.sqrt (!sq /. float_of_int t.ny))
    end
  in
  push t.ys y;
  push t.us u;
  t.seen <- t.seen + 1;
  result

let warm_start t (m : Arx.model) =
  if m.Arx.na <> t.na || m.Arx.nb <> t.nb || m.Arx.ny <> t.ny
     || m.Arx.nu <> t.nu
  then invalid_arg "Recursive.warm_start: model shape mismatch";
  (* Pack the coefficient matrices into the batch theta layout — the
     exact inverse of [model] below. *)
  for i = 0 to t.na - 1 do
    for ch = 0 to t.ny - 1 do
      for j = 0 to t.ny - 1 do
        Mat.set t.theta ((i * t.ny) + j) ch (Mat.get m.Arx.a.(i) ch j)
      done
    done
  done;
  let base = t.na * t.ny in
  for j = 0 to t.nb - 1 do
    for ch = 0 to t.ny - 1 do
      for k = 0 to t.nu - 1 do
        Mat.set t.theta (base + (j * t.nu) + k) ch (Mat.get m.Arx.b.(j) ch k)
      done
    done
  done;
  t.p <- Mat.identity (cols t)

(* Re-inflate only the input-coefficient (B) block. The output-history
   (A) rows get exactly zero covariance, so the RLS gain has zero
   entries there and the dynamics stay pinned: all the update energy
   lands in the input gains. This is the structured reset for gain-type
   plant drifts — closed-loop data carries too little excitation to
   re-learn dynamics, but a pinned-dynamics gain correction is well
   posed. Zeros are preserved by the covariance update (P phi has zero
   A entries), so the pin survives subsequent samples. *)
let reset_covariance ~delta t =
  if delta <= 0.0 then
    invalid_arg "Recursive.reset_covariance: delta must be positive";
  let c = cols t in
  let base = t.na * t.ny in
  let p = Mat.create c c in
  for k = base to c - 1 do
    Mat.set p k k (1.0 /. delta)
  done;
  t.p <- p

(* Unpack theta into coefficient matrices exactly as [Arx.fit_on] does,
   so a converged recursive model and a batch model are comparable
   entry-for-entry. *)
let model t =
  let ny = t.ny and nu = t.nu in
  let a =
    Array.init t.na (fun i ->
        Mat.transpose (Mat.sub_matrix t.theta (i * ny) 0 ny ny))
  in
  let b =
    Array.init t.nb (fun j ->
        Mat.transpose (Mat.sub_matrix t.theta ((t.na * ny) + (j * nu)) 0 nu ny))
  in
  { Arx.na = t.na; nb = t.nb; ny; nu; a; b }

(* ------------------------------------------------------------------ *)
(* Drift detection                                                     *)
(* ------------------------------------------------------------------ *)

module Drift = struct
  (* Self-calibrating: the first [warmup] residuals establish a baseline
     level, and drift means the residual EWMA exceeding [ratio] times
     that baseline. No absolute threshold — a session on a clean plant
     never trips regardless of the scheme's native residual scale. *)
  type detector = {
    mutable n : int;
    mutable sum : float; (* Baseline accumulator during warmup. *)
    mutable base : float; (* Calibrated baseline (NaN until set). *)
    mutable avg : float; (* Residual EWMA. *)
    mutable is_tripped : bool;
  }

  (* EWMA coefficient, calibration length, trip multiple, and the
     minimum baseline that guards exactly-zero residuals. *)
  let alpha = 0.1

  let warmup = 30

  let ratio = 2.5

  let floor = 1e-9

  let create () =
    { n = 0; sum = 0.0; base = Float.nan; avg = 0.0; is_tripped = false }

  let reset d =
    d.n <- 0;
    d.sum <- 0.0;
    d.base <- Float.nan;
    d.avg <- 0.0;
    d.is_tripped <- false

  let observe d err =
    d.avg <-
      (if d.n = 0 then err else ((1.0 -. alpha) *. d.avg) +. (alpha *. err));
    d.n <- d.n + 1;
    if d.n <= warmup then begin
      d.sum <- d.sum +. err;
      if d.n = warmup then
        d.base <- Float.max floor (d.sum /. float_of_int warmup);
      false
    end
    else begin
      let trip = (not d.is_tripped) && d.avg > ratio *. d.base in
      if trip then d.is_tripped <- true;
      trip
    end

  let level d = d.avg

  let baseline d = d.base
end
