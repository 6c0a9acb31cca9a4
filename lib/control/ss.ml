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

(* One allocation-free step: the products land in caller scratch ([sx]
   of dimension [order], [sy] of dimension [outputs]) and are then added
   elementwise. [x_next] must not alias [x] ([y] is computed from the
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

(* The frequency response G(z) = C (zI - A)^-1 B + D, computed on planar
   re/im float arrays. Its bits must equal those of the boxed computation
   (complex copies of A, B, C and D, complex Gaussian elimination on
   [Complex.t], then a complex product and sum; the oracle [Freq_ref] in
   test/oracle), so every entry of G gets that computation's float
   operations in the same order:
   - the pivot is chosen, and singularity judged, on [Float.hypot]
     moduli ([Complex.norm]), against 1e-14 * max(1, largest modulus of
     zI - A);
   - quotients use the stdlib [Complex.div] formula, branch included;
   - products with C's real entries keep [Complex.mul]'s zero-imaginary
     terms ([0.0 *. x] is not a no-op when x is infinite) and the
     boxed product's skip of zero entries.
   Only the order in which independent entries are visited differs, and
   the eliminated lower triangle, which nothing reads, is not written.

   G lands directly in the column-major planes [Svd.norm2_planar] reads,
   laid out as [Svd.norm2_complex] would copy it: with the smaller of
   G's dimensions as columns. *)
type response = {
  sys : t;
  n : int;
  nin : int;
  nout : int;
  neg_a : float array;  (* 0 - a_ij: the off-diagonal entries of zI - A *)
  off_diag_max : float;
      (* max |0 - a_ij| over i <> j: the frequency-independent part of
         the pivot tolerance's modulus maximum *)
  mre : float array;  (* zI - A, factorized in place *)
  mim : float array;
  xre : float array;  (* B, then (zI - A)^-1 B; n x nin, row-major *)
  xim : float array;
  gre : float array;  (* G, entry (i, j) at [i * row_step + j * col_step] *)
  gim : float array;
  row_step : int;
  col_step : int;
}

let response sys =
  let n = order sys and nin = inputs sys and nout = outputs sys in
  let neg_a = Array.map (fun x -> 0.0 -. x) sys.a.Mat.data in
  let off_diag_max = ref 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then
        off_diag_max :=
          Float.max !off_diag_max (Float.hypot neg_a.((i * n) + j) 0.0)
    done
  done;
  let row_step, col_step = if nout >= nin then (1, nout) else (nin, 1) in
  {
    sys;
    n;
    nin;
    nout;
    neg_a;
    off_diag_max = !off_diag_max;
    mre = Array.make (n * n) 0.0;
    mim = Array.make (n * n) 0.0;
    xre = Array.make (n * nin) 0.0;
    xim = Array.make (n * nin) 0.0;
    gre = Array.make (nout * nin) 0.0;
    gim = Array.make (nout * nin) 0.0;
    row_step;
    col_step;
  }

let point sys w =
  match sys.domain with
  | Continuous -> { Complex.re = 0.0; im = w }
  | Discrete p -> Complex.exp { Complex.re = 0.0; im = w *. p }

(* Fill [r.gre]/[r.gim] with G(z). @raise Lu.Singular when zI - A is. *)
let respond r (z : Complex.t) =
  let n = r.n and nin = r.nin and nout = r.nout in
  let mre = r.mre and mim = r.mim and xre = r.xre and xim = r.xim in
  let a = r.sys.a.Mat.data in
  (* zI - A; [z.im -. 0.0] is [z.im] bit for bit. *)
  Array.blit r.neg_a 0 mre 0 (n * n);
  Array.fill mim 0 (n * n) 0.0;
  let max_mod = ref r.off_diag_max in
  for i = 0 to n - 1 do
    let ii = (i * n) + i in
    mre.(ii) <- z.Complex.re -. a.(ii);
    mim.(ii) <- z.Complex.im;
    max_mod := Float.max !max_mod (Float.hypot mre.(ii) mim.(ii))
  done;
  Array.blit r.sys.b.Mat.data 0 xre 0 (n * nin);
  Array.fill xim 0 (n * nin) 0.0;
  let tol = 1e-14 *. Float.max 1.0 !max_mod in
  (* Gaussian elimination with partial pivoting. *)
  for k = 0 to n - 1 do
    let kb = k * n in
    let p = ref k and best = ref (Float.hypot mre.(kb + k) mim.(kb + k)) in
    for i = k + 1 to n - 1 do
      let v = Float.hypot mre.((i * n) + k) mim.((i * n) + k) in
      if v > !best then begin
        p := i;
        best := v
      end
    done;
    if !best <= tol then raise Lu.Singular;
    let p = !p in
    if p <> k then begin
      let pb = p * n in
      for j = k to n - 1 do
        let t = mre.(kb + j) in
        mre.(kb + j) <- mre.(pb + j);
        mre.(pb + j) <- t;
        let t = mim.(kb + j) in
        mim.(kb + j) <- mim.(pb + j);
        mim.(pb + j) <- t
      done;
      let kx = k * nin and px = p * nin in
      for j = 0 to nin - 1 do
        let t = xre.(kx + j) in
        xre.(kx + j) <- xre.(px + j);
        xre.(px + j) <- t;
        let t = xim.(kx + j) in
        xim.(kx + j) <- xim.(px + j);
        xim.(px + j) <- t
      done
    end;
    (* [Complex.div _ pivot]: its branch and its [r] (here [q]) and [d]
       depend on the pivot alone. *)
    let pr = mre.(kb + k) and pi = mim.(kb + k) in
    let by_re = Float.abs pr >= Float.abs pi in
    let q = if by_re then pi /. pr else pr /. pi in
    let d = if by_re then pr +. (q *. pi) else pi +. (q *. pr) in
    let kx = k * nin in
    for i = k + 1 to n - 1 do
      let ib = i * n in
      let yr = mre.(ib + k) and yi = mim.(ib + k) in
      let fr =
        if by_re then (yr +. (q *. yi)) /. d else ((q *. yr) +. yi) /. d
      in
      let fi =
        if by_re then (yi -. (q *. yr)) /. d else ((q *. yi) -. yr) /. d
      in
      if fr <> 0.0 || fi <> 0.0 then begin
        for j = k + 1 to n - 1 do
          let ur = Array.unsafe_get mre (kb + j)
          and ui = Array.unsafe_get mim (kb + j) in
          Array.unsafe_set mre (ib + j)
            (Array.unsafe_get mre (ib + j) -. ((fr *. ur) -. (fi *. ui)));
          Array.unsafe_set mim (ib + j)
            (Array.unsafe_get mim (ib + j) -. ((fr *. ui) +. (fi *. ur)))
        done;
        let ix = i * nin in
        for j = 0 to nin - 1 do
          let ur = Array.unsafe_get xre (kx + j)
          and ui = Array.unsafe_get xim (kx + j) in
          Array.unsafe_set xre (ix + j)
            (Array.unsafe_get xre (ix + j) -. ((fr *. ur) -. (fi *. ui)));
          Array.unsafe_set xim (ix + j)
            (Array.unsafe_get xim (ix + j) -. ((fr *. ui) +. (fi *. ur)))
        done
      end
    done
  done;
  (* Back substitution in place, row i from rows i+1..n-1: each entry
     subtracts its terms in ascending order, then divides by U_ii. *)
  for i = n - 1 downto 0 do
    let ib = i * n and ix = i * nin in
    for l = i + 1 to n - 1 do
      let ur = mre.(ib + l) and ui = mim.(ib + l) and lx = l * nin in
      for j = 0 to nin - 1 do
        let vr = Array.unsafe_get xre (lx + j)
        and vi = Array.unsafe_get xim (lx + j) in
        Array.unsafe_set xre (ix + j)
          (Array.unsafe_get xre (ix + j) -. ((ur *. vr) -. (ui *. vi)));
        Array.unsafe_set xim (ix + j)
          (Array.unsafe_get xim (ix + j) -. ((ur *. vi) +. (ui *. vr)))
      done
    done;
    let pr = mre.(ib + i) and pi = mim.(ib + i) in
    let by_re = Float.abs pr >= Float.abs pi in
    let q = if by_re then pi /. pr else pr /. pi in
    let d = if by_re then pr +. (q *. pi) else pi +. (q *. pr) in
    for j = 0 to nin - 1 do
      let yr = xre.(ix + j) and yi = xim.(ix + j) in
      xre.(ix + j) <-
        (if by_re then (yr +. (q *. yi)) /. d else ((q *. yr) +. yi) /. d);
      xim.(ix + j) <-
        (if by_re then (yi -. (q *. yr)) /. d else ((q *. yi) -. yr) /. d)
    done
  done;
  (* G = C x + D, each entry summed over k ascending from zero. *)
  let c = r.sys.c.Mat.data and dd = r.sys.d.Mat.data in
  for i = 0 to nout - 1 do
    let ic = i * n in
    for j = 0 to nin - 1 do
      let sr = ref 0.0 and si = ref 0.0 in
      for k = 0 to n - 1 do
        let cik = Array.unsafe_get c (ic + k) in
        if cik <> 0.0 then begin
          let vr = Array.unsafe_get xre ((k * nin) + j)
          and vi = Array.unsafe_get xim ((k * nin) + j) in
          sr := !sr +. ((cik *. vr) -. (0.0 *. vi));
          si := !si +. ((cik *. vi) +. (0.0 *. vr))
        end
      done;
      let g = (i * r.row_step) + (j * r.col_step) in
      r.gre.(g) <- !sr +. dd.((i * nin) + j);
      r.gim.(g) <- !si +. 0.0
    done
  done

let freq_response sys w =
  if order sys = 0 then (Mat.copy sys.d, Mat.create (outputs sys) (inputs sys))
  else begin
    let r = response sys in
    respond r (point sys w);
    let plane p =
      Mat.init r.nout r.nin (fun i j -> p.((i * r.row_step) + (j * r.col_step)))
    in
    (plane r.gre, plane r.gim)
  end

let log_grid lo hi points =
  let llo = log lo and lhi = log hi in
  Array.init points (fun i ->
      exp (llo +. ((lhi -. llo) *. Float.of_int i /. Float.of_int (points - 1))))

(* The one grid walk: 200 log-spaced points, dc, then 40 points of local
   refinement around the coarse peak. It stops at the first evaluated
   value above [bound]: the caller only needs the peak when it is within
   the bound. *)
let hinf_norm_within ~bound sys =
  let exception Above in
  let check v = if v > bound then raise_notrace Above in
  if not (is_stable sys) then None
  else if order sys = 0 then begin
    let v = Svd.norm2 sys.d in
    if v > bound then None else Some v
  end
  else begin
    let wmax =
      match sys.domain with
      | Continuous -> 1e4 *. Float.max 1.0 (Mat.norm_inf sys.a)
      | Discrete p -> Float.pi /. p
    in
    let wmin = wmax /. 1e8 in
    let r = response sys in
    let m = max r.nout r.nin and n = min r.nout r.nin in
    let eval w =
      respond r (point sys w);
      let v = Svd.norm2_planar ~m ~n r.gre r.gim in
      check v;
      v
    in
    match
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
      (* Include w = 0 (dc) and refine locally around the coarse peak. *)
      let dc = Svd.norm2 (dcgain sys) in
      check dc;
      if dc > !best then best := dc;
      let sub =
        log_grid
          (Float.max wmin (!best_w /. 3.0))
          (Float.min wmax (!best_w *. 3.0))
          40
      in
      Array.iter (fun w -> best := Float.max !best (eval w)) sub;
      !best
    with
    | peak -> Some peak
    | exception Above -> None
  end

let hinf_norm sys =
  Option.value ~default:infinity (hinf_norm_within ~bound:infinity sys)
