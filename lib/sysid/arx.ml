open Linalg

type model = {
  na : int;
  nb : int;
  ny : int;
  nu : int;
  a : Mat.t array;
  b : Mat.t array;
}

let horizon na nb = max na (nb - 1)

(* Regressor row at time [t]: [y(t-1); ...; y(t-na); u(t); ...; u(t-nb+1)]. *)
let regressor na nb ~(u : Vec.t array) ~(y : Vec.t array) t =
  let ny = Vec.dim y.(0) and nu = Vec.dim u.(0) in
  let row = Vec.create ((na * ny) + (nb * nu)) in
  for i = 1 to na do
    Array.blit y.(t - i) 0 row ((i - 1) * ny) ny
  done;
  for j = 0 to nb - 1 do
    Array.blit u.(t - j) 0 row ((na * ny) + (j * nu)) nu
  done;
  row

let fit_on ~na ~nb ~u ~y =
  if Array.length u <> Array.length y then
    invalid_arg "Arx.fit: u and y record lengths differ";
  if na < 0 || nb < 1 then invalid_arg "Arx.fit: need na >= 0, nb >= 1";
  let len = Array.length y in
  let h = horizon na nb in
  let ny = Vec.dim y.(0) and nu = Vec.dim u.(0) in
  let rows = len - h in
  let cols = (na * ny) + (nb * nu) in
  if rows < cols then invalid_arg "Arx.fit: record too short for the order";
  let phi = Mat.create rows cols in
  let target = Mat.create rows ny in
  for r = 0 to rows - 1 do
    let t = h + r in
    Mat.set_row phi r (regressor na nb ~u ~y t);
    Mat.set_row target r y.(t)
  done;
  (* Ridge-regularized normal equations via QR on the stacked system keeps
     the fit well-posed when the excitation misses directions. *)
  let lambda = 1e-6 in
  let phi_aug = Mat.vcat phi (Mat.scalar cols (Float.sqrt lambda)) in
  let target_aug = Mat.vcat target (Mat.create cols ny) in
  let theta = Qr.solve_least_squares_mat phi_aug target_aug in
  (* theta is cols x ny; unpack into the coefficient matrices. *)
  let a =
    Array.init na (fun i ->
        Mat.transpose (Mat.sub_matrix theta (i * ny) 0 ny ny))
  in
  let b =
    Array.init nb (fun j ->
        Mat.transpose (Mat.sub_matrix theta ((na * ny) + (j * nu)) 0 nu ny))
  in
  { na; nb; ny; nu; a; b }

let fit ~na ~nb ~u ~y = fit_on ~na ~nb ~u ~y

(* Causal FIR filtering of a vector-valued record, channel-wise:
   v_f(t) = sum_k filter.(k) * v(t-k). *)
let fir_filter filter record =
  let nf = Vec.dim filter in
  Array.mapi
    (fun t _ ->
      let dim = Vec.dim record.(0) in
      let out = Vec.create dim in
      for k = 0 to min (nf - 1) t do
        for c = 0 to dim - 1 do
          out.(c) <- out.(c) +. (filter.(k) *. record.(t - k).(c))
        done
      done;
      out)
    record

let fit_weighted ~na ~nb ~filter ~u ~y =
  fit_on ~na ~nb ~u:(fir_filter filter u) ~y:(fir_filter filter y)

let predict_at model ~u ~y t =
  let phi = regressor model.na model.nb ~u ~y t in
  let ny = model.ny and nu = model.nu in
  let out = Vec.create ny in
  for i = 0 to model.na - 1 do
    let contrib = Mat.mul_vec model.a.(i) (Vec.slice phi (i * ny) ny) in
    for c = 0 to ny - 1 do
      out.(c) <- out.(c) +. contrib.(c)
    done
  done;
  for j = 0 to model.nb - 1 do
    let contrib =
      Mat.mul_vec model.b.(j) (Vec.slice phi ((model.na * ny) + (j * nu)) nu)
    in
    for c = 0 to ny - 1 do
      out.(c) <- out.(c) +. contrib.(c)
    done
  done;
  out

let predict_one_step model ~u ~y =
  let h = horizon model.na model.nb in
  Array.mapi
    (fun t yt -> if t < h then Vec.copy yt else predict_at model ~u ~y t)
    y

(* Block observer canonical form. With p = max(na, nb-1) block rows:
   y = x_1 + B0 u
   x_i' = A_i y + x_{i+1} + B_i u   (x_{p+1} = 0)
   so A(i,1) = A_i, A(i,i+1) = I, B_i' = B_i + A_i B_0, C = [I 0 ...]. *)
let to_ss model ~period =
  let p = max model.na (model.nb - 1) in
  let ny = model.ny and nu = model.nu in
  let ai i = if i < model.na then model.a.(i) else Mat.create ny ny in
  let bi i = if i < model.nb then model.b.(i) else Mat.create ny nu in
  let b0 = bi 0 in
  let n = p * ny in
  let a = Mat.create n n in
  let b = Mat.create n nu in
  for i = 0 to p - 1 do
    Mat.set_block a (i * ny) 0 (ai i);
    if i < p - 1 then
      Mat.set_block a (i * ny) ((i + 1) * ny) (Mat.identity ny);
    Mat.set_block b (i * ny) 0 (Mat.add (bi (i + 1)) (Mat.mul (ai i) b0))
  done;
  let c = Mat.hcat (Mat.identity ny) (Mat.create ny (n - ny)) in
  Control.Ss.make ~domain:(Control.Ss.Discrete period) ~a ~b ~c ~d:b0 ()
