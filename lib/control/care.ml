open Linalg

exception No_solution of string

(* Matrix sign function by the scaled Newton iteration
   Z <- (c Z + (c Z)^-1) / 2 with Byers' determinant scaling
   c = |det Z|^(-1/m). Converges globally quadratically when Z has no
   imaginary-axis eigenvalues. *)
let sign_function z0 =
  let m = z0.Mat.rows in
  (* Double-buffered Newton iterate: znext and the convergence residual
     are computed into preallocated scratch with exactly the float ops of
     the allocating expression
     [scale 0.5 (add (scale c z) (scale (1/c) zinv))]. *)
  let z = ref (Mat.copy z0) in
  let znext = ref (Mat.create m m) in
  let t1 = Mat.create m m in
  let t2 = Mat.create m m in
  let diff = Mat.create m m in
  let err = ref infinity in
  let iter = ref 0 in
  while !err > 1e-12 && !iter < 100 do
    incr iter;
    (* One factorization per step serves both the inverse and the
       determinant. *)
    let f =
      try Lu.factorize !z
      with Lu.Singular ->
        raise (No_solution "sign iteration hit a singular iterate")
    in
    let zinv = Lu.inv_factored f in
    let d = Lu.det_factored f in
    if d = 0.0 || not (Float.is_finite d) then
      raise (No_solution "sign iteration: degenerate determinant");
    let c = Float.abs d ** (-1.0 /. Float.of_int m) in
    let c = if Float.is_finite c && c > 0.0 then c else 1.0 in
    Mat.scale_into ~dst:t1 c !z;
    Mat.scale_into ~dst:t2 (1.0 /. c) zinv;
    Mat.add_into ~dst:t1 t1 t2;
    Mat.scale_into ~dst:!znext 0.5 t1;
    Mat.sub_into ~dst:diff !znext !z;
    err := Mat.norm_fro diff /. Float.max 1.0 (Mat.norm_fro !znext);
    let t = !z in
    z := !znext;
    znext := t
  done;
  if !err > 1e-6 then
    raise (No_solution "sign iteration did not converge (eigenvalues near the imaginary axis?)");
  !z

(* From S = sign(H), the stabilizing solution satisfies
   [S12; S22 + I] X = -[S11 + I; S21] (overdetermined, consistent). *)
let solve_hamiltonian h =
  let two_n = h.Mat.rows in
  if two_n mod 2 <> 0 || not (Mat.is_square h) then
    invalid_arg "Care.solve_hamiltonian: needs square 2n x 2n input";
  let n = two_n / 2 in
  let s = sign_function h in
  let s11 = Mat.sub_matrix s 0 0 n n in
  let s12 = Mat.sub_matrix s 0 n n n in
  let s21 = Mat.sub_matrix s n 0 n n in
  let s22 = Mat.sub_matrix s n n n n in
  let i = Mat.identity n in
  let lhs = Mat.vcat s12 (Mat.add s22 i) in
  let rhs = Mat.neg (Mat.vcat (Mat.add s11 i) s21) in
  let x =
    try Qr.solve_least_squares_mat lhs rhs
    with Lu.Singular ->
      raise (No_solution "rank-deficient sign-function extraction")
  in
  (* Consistency check: the overdetermined system must actually be solved. *)
  let resid = Mat.norm_fro (Mat.sub (Mat.mul lhs x) rhs) in
  if resid > 1e-6 *. Float.max 1.0 (Mat.norm_fro rhs) then
    raise (No_solution "no stabilizing solution (inconsistent extraction)");
  Mat.symmetrize x

let solve ~a ~b ~q ~r =
  let g = Mat.mul3 b (Lu.inv r) (Mat.transpose b) in
  let h =
    Mat.blocks [ [ a; Mat.neg g ]; [ Mat.neg q; Mat.neg (Mat.transpose a) ] ]
  in
  solve_hamiltonian h
