open Linalg

type t = { plant : Arx.model; noise : Vec.t; iterations : int }

let residuals model ~u ~y =
  let pred = Arx.predict_one_step model ~u ~y in
  Array.mapi
    (fun t yt ->
      if t < max model.Arx.na (model.Arx.nb - 1) then Vec.create (Vec.dim yt)
      else Vec.sub yt pred.(t))
    y

(* Fit a scalar AR model pooled across output channels:
   e_c(t) = sum_k c_k e_c(t-k). Pooling keeps the prefilter common to all
   channels, which the GLS refit requires. *)
let fit_noise_ar order res =
  let ny = Vec.dim res.(0) in
  let len = Array.length res in
  let rows = (len - order) * ny in
  if rows <= order then Vec.create order
  else begin
    let phi = Mat.create rows order in
    let target = Vec.create rows in
    let r = ref 0 in
    for t = order to len - 1 do
      for c = 0 to ny - 1 do
        for k = 1 to order do
          Mat.set phi !r (k - 1) res.(t - k).(c)
        done;
        target.(!r) <- res.(t).(c);
        incr r
      done
    done;
    (* Ridge regularization keeps the filter stable-ish when residuals are
       nearly white (coefficients shrink to zero); scaled to the residual
       energy so it never dominates a genuine noise model. *)
    let energy = Vec.dot target target /. Float.of_int rows in
    let lambda = 1e-3 *. Float.of_int rows *. Float.max 1e-12 energy /. 100.0 in
    let phi_aug = Mat.vcat phi (Mat.scalar order (Float.sqrt lambda)) in
    let target_aug = Vec.concat target (Vec.create order) in
    Qr.solve_least_squares phi_aug target_aug
  end

(* The prefilter is the polynomial 1 - c_1 q^-1 - ... - c_nc q^-nc. *)
let prefilter_of_noise noise =
  Vec.concat (Vec.of_list [ 1.0 ]) (Vec.map (fun c -> -.c) noise)

let noise_order = 2

let fit ~na ~nb ~u ~y =
  let plant = ref (Arx.fit ~na ~nb ~u ~y) in
  let noise = ref (Vec.create noise_order) in
  let iterations = ref 0 in
  let converged = ref false in
  while (not !converged) && !iterations < 4 do
    incr iterations;
    let res = residuals !plant ~u ~y in
    let new_noise = fit_noise_ar noise_order res in
    let delta = Vec.norm_inf (Vec.sub new_noise !noise) in
    noise := new_noise;
    if delta < 1e-4 then converged := true
    else begin
      let filter = prefilter_of_noise new_noise in
      plant := Arx.fit_weighted ~na ~nb ~filter ~u ~y
    end
  done;
  { plant = !plant; noise = !noise; iterations = !iterations }
