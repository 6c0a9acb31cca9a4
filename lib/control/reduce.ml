open Linalg

(* Square-root balanced truncation: factor the gramians P = R R^T and
   Q = L L^T (here via symmetric eigendecomposition), take the SVD of
   L^T R = U S V^T; the projection matrices are
   T = R V S^{-1/2} and W = L U S^{-1/2}, giving the balanced realization
   (W^T A T, W^T B, C T). *)

let gramian_factor g =
  let values, vectors = Eig.symmetric (Mat.symmetrize g) in
  let n = Vec.dim values in
  (* Clip tiny negative eigenvalues from numerical symmetrization. *)
  let roots = Array.map (fun v -> Float.sqrt (Float.max 0.0 v)) values in
  Mat.mul vectors (Mat.diag (Vec.init n (fun i -> roots.(i))))

let balanced_projection sys =
  if not (Ss.is_stable sys) then
    invalid_arg "Reduce: system must be stable";
  let p = Lyap.controllability_gramian sys in
  let q = Lyap.observability_gramian sys in
  let r = gramian_factor p in
  let l = gramian_factor q in
  let u, s, v = Svd.decompose (Mat.mul (Mat.transpose l) r) in
  (r, l, u, s, v)

let hankel_singular_values sys =
  let _, _, _, s, _ = balanced_projection sys in
  s

let balanced_truncation sys ~order =
  let n = Ss.order sys in
  if order <= 0 || order > n then
    invalid_arg "Reduce.balanced_truncation: order out of range";
  if not (Ss.is_stable sys) then invalid_arg "Reduce: system must be stable";
  if order = n then sys
  else begin
    let r, l, u, s, v = balanced_projection sys in
    (* Guard rank deficiency: don't keep states with negligible energy. *)
    let keep = ref order in
    while !keep > 1 && s.(!keep - 1) < 1e-12 *. s.(0) do
      decr keep
    done;
    let k = !keep in
    let s_inv_sqrt =
      Mat.diag (Vec.init k (fun i -> 1.0 /. Float.sqrt s.(i)))
    in
    let vk = Mat.sub_matrix v 0 0 (Mat.dims v |> fst) k in
    let uk = Mat.sub_matrix u 0 0 (Mat.dims u |> fst) k in
    let t = Mat.mul3 r vk s_inv_sqrt in
    let w = Mat.mul3 l uk s_inv_sqrt in
    let wt = Mat.transpose w in
    Ss.make ~domain:sys.Ss.domain ~a:(Mat.mul3 wt sys.Ss.a t)
      ~b:(Mat.mul wt sys.Ss.b) ~c:(Mat.mul sys.Ss.c t) ~d:sys.Ss.d ()
  end

let error_bound sys ~order =
  let s = hankel_singular_values sys in
  let acc = ref 0.0 in
  Array.iteri (fun i x -> if i >= order then acc := !acc +. x) s;
  2.0 *. !acc
