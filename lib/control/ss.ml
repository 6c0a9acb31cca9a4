open Linalg

type domain = Continuous | Discrete of float

type t = {
  a : Mat.t;
  b : Mat.t;
  c : Mat.t;
  d : Mat.t;
  domain : domain;
}

let make ?(domain = Continuous) ~a ~b ~c ~d () =
  let n = a.Mat.rows in
  if a.Mat.cols <> n then invalid_arg "Ss.make: A must be square";
  if b.Mat.rows <> n then invalid_arg "Ss.make: B row count must match A";
  if c.Mat.cols <> n then invalid_arg "Ss.make: C column count must match A";
  if d.Mat.rows <> c.Mat.rows || d.Mat.cols <> b.Mat.cols then
    invalid_arg "Ss.make: D must be outputs x inputs";
  (match domain with
  | Discrete p when p <= 0.0 -> invalid_arg "Ss.make: period must be positive"
  | Discrete _ | Continuous -> ());
  { a; b; c; d; domain }

let order sys = sys.a.Mat.rows

let inputs sys = sys.b.Mat.cols

let outputs sys = sys.c.Mat.rows

let is_stable sys =
  order sys = 0
  ||
  match sys.domain with
  | Continuous -> Eig.is_stable_continuous sys.a
  | Discrete _ -> Eig.is_stable_discrete sys.a

let dcgain sys =
  if order sys = 0 then sys.d
  else
    match sys.domain with
    | Continuous -> Mat.sub sys.d (Mat.mul sys.c (Lu.solve sys.a sys.b))
    | Discrete _ ->
      let ima = Mat.sub (Mat.identity (order sys)) sys.a in
      Mat.add sys.d (Mat.mul sys.c (Lu.solve ima sys.b))

let step sys ~x ~u =
  (match sys.domain with
  | Discrete _ -> ()
  | Continuous -> invalid_arg "Ss.step: continuous system");
  let x_next = Vec.add (Mat.mul_vec sys.a x) (Mat.mul_vec sys.b u) in
  let y = Vec.add (Mat.mul_vec sys.c x) (Mat.mul_vec sys.d u) in
  (x_next, y)

(* Allocation-free [step]: the products land in caller scratch ([sx] of
   dimension [order], [sy] of dimension [outputs]) and are then added
   elementwise — the same two-sum-then-add float ops as [step], so results
   are bit-identical. [x_next] must not alias [x] ([y] is computed from the
   old state after [x_next] is written). *)
let step_into sys ~x ~u ~x_next ~y ~sx ~sy =
  (match sys.domain with
  | Discrete _ -> ()
  | Continuous -> invalid_arg "Ss.step_into: continuous system");
  Mat.mul_vec_into ~dst:x_next sys.a x;
  Mat.mul_vec_into ~dst:sx sys.b u;
  Vec.add_into ~dst:x_next x_next sx;
  Mat.mul_vec_into ~dst:y sys.c x;
  Mat.mul_vec_into ~dst:sy sys.d u;
  Vec.add_into ~dst:y y sy

let simulate sys ?x0 us =
  let x = ref (match x0 with Some v -> v | None -> Vec.create (order sys)) in
  Array.map
    (fun u ->
      let x_next, y = step sys ~x:!x ~u in
      x := x_next;
      y)
    us

let same_domain name s1 s2 =
  match (s1.domain, s2.domain) with
  | Continuous, Continuous -> Continuous
  | Discrete p, Discrete q when Float.abs (p -. q) < 1e-12 -> Discrete p
  | _ ->
    (* Static systems are domain-agnostic. *)
    if order s1 = 0 then s2.domain
    else if order s2 = 0 then s1.domain
    else invalid_arg (name ^ ": mixed time domains")

(* Lower LFT: partition P's inputs as [w; u] and outputs as [z; y] with
   (u, y) matched to K; close u = K y. *)
let lft_lower p k =
  let nu = inputs k and ny = outputs k in
  let m_w = inputs p - ny and p_z = outputs p - nu in
  if m_w < 0 || p_z < 0 then invalid_arg "Ss.lft_lower: partition mismatch";
  let domain = same_domain "Ss.lft_lower" p k in
  let np = order p in
  let b1 = Mat.sub_matrix p.b 0 0 np m_w
  and b2 = Mat.sub_matrix p.b 0 m_w np ny in
  let c1 = Mat.sub_matrix p.c 0 0 p_z np
  and c2 = Mat.sub_matrix p.c p_z 0 nu np in
  let d11 = Mat.sub_matrix p.d 0 0 p_z m_w
  and d12 = Mat.sub_matrix p.d 0 m_w p_z ny
  and d21 = Mat.sub_matrix p.d p_z 0 nu m_w
  and d22 = Mat.sub_matrix p.d p_z m_w nu ny in
  (* u = K y, y = C2 x + D21 w + D22 u; well-posedness: I - Dk D22 inv. *)
  let e = Mat.sub (Mat.identity ny) (Mat.mul k.d d22) in
  let einv = Lu.inv e in
  (* y = (I - D22 Dk)^-1 (C2 x_p + D22 Ck x_k + D21 w) -- derive via u. *)
  (* u = Ck x_k + Dk y; y = C2 x_p + D21 w + D22 u
     => u = Ck x_k + Dk (C2 x_p + D21 w + D22 u)
     => (I - Dk D22) u = Ck x_k + Dk C2 x_p + Dk D21 w *)
  let u_xp = Mat.mul einv (Mat.mul k.d c2) in
  let u_xk = Mat.mul einv k.c in
  let u_w = Mat.mul einv (Mat.mul k.d d21) in
  let y_xp = Mat.add c2 (Mat.mul d22 u_xp) in
  let y_xk = Mat.mul d22 u_xk in
  let y_w = Mat.add d21 (Mat.mul d22 u_w) in
  let a =
    Mat.blocks
      [
        [ Mat.add p.a (Mat.mul b2 u_xp); Mat.mul b2 u_xk ];
        [ Mat.mul k.b y_xp; Mat.add k.a (Mat.mul k.b y_xk) ];
      ]
  in
  let b = Mat.vcat (Mat.add b1 (Mat.mul b2 u_w)) (Mat.mul k.b y_w) in
  let c = Mat.hcat (Mat.add c1 (Mat.mul d12 u_xp)) (Mat.mul d12 u_xk) in
  let d = Mat.add d11 (Mat.mul d12 u_w) in
  { a; b; c; d; domain }

let freq_response sys w =
  let n = order sys in
  if n = 0 then Cmat.of_real sys.d
  else begin
    let z =
      match sys.domain with
      | Continuous -> { Complex.re = 0.0; im = w }
      | Discrete p -> Complex.exp { Complex.re = 0.0; im = w *. p }
    in
    let x = Cmat.resolvent z (Cmat.of_real sys.a) (Cmat.of_real sys.b) in
    Cmat.add (Cmat.mul (Cmat.of_real sys.c) x) (Cmat.of_real sys.d)
  end

let log_grid lo hi points =
  let llo = log lo and lhi = log hi in
  Array.init points (fun i ->
      exp (llo +. ((lhi -. llo) *. Float.of_int i /. Float.of_int (points - 1))))

let hinf_norm ?(points = 200) sys =
  if not (is_stable sys) then infinity
  else if order sys = 0 then Svd.norm2 sys.d
  else begin
    let wmax =
      match sys.domain with
      | Continuous -> 1e4 *. Float.max 1.0 (Mat.norm_inf sys.a)
      | Discrete p -> Float.pi /. p
    in
    let wmin = wmax /. 1e8 in
    (* Hoist the real->complex conversions of A, B, C, D (and the
       identity) out of the ~240 grid evaluations; the per-frequency
       arithmetic is unchanged from [freq_response]. *)
    let ca = Cmat.of_real sys.a
    and cb = Cmat.of_real sys.b
    and cc = Cmat.of_real sys.c
    and cd = Cmat.of_real sys.d in
    let eval w =
      let z =
        match sys.domain with
        | Continuous -> { Complex.re = 0.0; im = w }
        | Discrete p -> Complex.exp { Complex.re = 0.0; im = w *. p }
      in
      let x = Cmat.resolvent z ca cb in
      Svd.norm2_complex (Cmat.add (Cmat.mul cc x) cd)
    in
    let grid = log_grid wmin wmax points in
    let best_w = ref grid.(0) and best = ref 0.0 in
    Array.iter
      (fun w ->
        let v = eval w in
        if v > !best then begin
          best := v;
          best_w := w
        end)
      grid;
    (* Include w = 0 (dc) and refine locally around the coarse peak. *)
    let dc = Svd.norm2 (dcgain sys) in
    if dc > !best then best := dc;
    let refine lo hi =
      let sub = log_grid (Float.max wmin lo) (Float.min wmax hi) 40 in
      Array.iter (fun w -> best := Float.max !best (eval w)) sub
    in
    refine (!best_w /. 3.0) (!best_w *. 3.0);
    !best
  end
