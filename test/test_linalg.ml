(* Unit and property tests for the dense linear algebra substrate. *)

open Linalg
open Oracle

let check_float = Alcotest.(check (float 1e-9))
let check_float_loose = Alcotest.(check (float 1e-6))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mat = Alcotest.testable Mat.pp (Approx.mat ~tol:1e-8)

let trace a =
  let acc = ref 0.0 in
  for i = 0 to min a.Mat.rows a.Mat.cols - 1 do
    acc := !acc +. Mat.get a i i
  done;
  !acc

let orthonormal_columns ?(tol = 1e-8) q =
  Approx.mat ~tol (Mat.mul (Mat.transpose q) q) (Mat.identity q.Mat.cols)

(* ------------------------------------------------------------------ *)
(* Vec                                                                 *)
(* ------------------------------------------------------------------ *)

let test_vec_basic () =
  let v = Vec.of_list [ 1.0; -2.0; 3.0 ] in
  check_int "dim" 3 (Vec.dim v);
  check_float "dot" 14.0 (Vec.dot v v);
  check_float "norm2" (sqrt 14.0) (Vec.norm2 v);
  check_float "norm_inf" 3.0 (Vec.norm_inf v)

let test_vec_arith () =
  let a = Vec.of_list [ 1.0; 2.0 ] and b = Vec.of_list [ 3.0; -1.0 ] in
  check_bool "sub" true
    (Approx.vec (Vec.sub a b) (Vec.of_list [ -2.0; 3.0 ]));
  check_bool "scale" true
    (Approx.vec (Vec.scale (-1.0) a) (Vec.of_list [ -1.0; -2.0 ]))

let test_vec_basis () =
  let e1 = Vec.basis 3 1 in
  check_float "entry" 1.0 e1.(1);
  check_float "norm" 1.0 (Vec.norm2 e1);
  Alcotest.check_raises "out of range" (Invalid_argument "Vec.basis: index out of range")
    (fun () -> ignore (Vec.basis 3 3))

let test_vec_norm2_overflow () =
  let v = Vec.of_list [ 1e160; 1e160 ] in
  check_bool "no overflow" true (Float.is_finite (Vec.norm2 v));
  check_float_loose "value" (sqrt 2.0)
    (Vec.norm2 v /. 1e160)

let test_vec_slice_concat () =
  let v = Vec.of_list [ 1.0; 2.0; 3.0; 4.0 ] in
  let a = Vec.slice v 1 2 in
  check_bool "slice" true (Approx.vec a (Vec.of_list [ 2.0; 3.0 ]));
  check_bool "concat" true
    (Approx.vec
       (Vec.concat (Vec.slice v 0 2) (Vec.slice v 2 2))
       v)

(* ------------------------------------------------------------------ *)
(* Mat                                                                 *)
(* ------------------------------------------------------------------ *)

let test_mat_identity_mul () =
  let a = Mat.random ~seed:1 4 4 in
  Alcotest.check mat "I*a = a" a (Mat.mul (Mat.identity 4) a);
  Alcotest.check mat "a*I = a" a (Mat.mul a (Mat.identity 4))

let test_mat_transpose () =
  let a = Mat.random ~seed:2 3 5 in
  let t = Mat.transpose a in
  check_int "rows" 5 t.Mat.rows;
  check_int "cols" 3 t.Mat.cols;
  Alcotest.check mat "involution" a (Mat.transpose t)

let test_mat_mul_known () =
  let a = Mat.of_lists [ [ 1.0; 2.0 ]; [ 3.0; 4.0 ] ] in
  let b = Mat.of_lists [ [ 5.0; 6.0 ]; [ 7.0; 8.0 ] ] in
  let expected = Mat.of_lists [ [ 19.0; 22.0 ]; [ 43.0; 50.0 ] ] in
  Alcotest.check mat "2x2 product" expected (Mat.mul a b)

let test_mat_blocks () =
  let a = Mat.of_lists [ [ 1.0 ] ] in
  let b = Mat.of_lists [ [ 2.0 ] ] in
  let c = Mat.of_lists [ [ 3.0 ] ] in
  let d = Mat.of_lists [ [ 4.0 ] ] in
  let m = Mat.blocks [ [ a; b ]; [ c; d ] ] in
  let expected = Mat.of_lists [ [ 1.0; 2.0 ]; [ 3.0; 4.0 ] ] in
  Alcotest.check mat "2x2 block assembly" expected m

let test_mat_block_roundtrip () =
  let a = Mat.random ~seed:3 6 6 in
  let tl = Mat.sub_matrix a 0 0 3 3
  and tr = Mat.sub_matrix a 0 3 3 3
  and bl = Mat.sub_matrix a 3 0 3 3
  and br = Mat.sub_matrix a 3 3 3 3 in
  Alcotest.check mat "split/assemble roundtrip" a
    (Mat.blocks [ [ tl; tr ]; [ bl; br ] ])

let test_mat_hcat_vcat () =
  let a = Mat.random ~seed:4 2 3 and b = Mat.random ~seed:5 2 2 in
  let h = Mat.hcat a b in
  check_int "hcat cols" 5 h.Mat.cols;
  Alcotest.check mat "hcat left" a (Mat.sub_matrix h 0 0 2 3);
  Alcotest.check mat "hcat right" b (Mat.sub_matrix h 0 3 2 2);
  let c = Mat.random ~seed:6 3 4 and d = Mat.random ~seed:7 1 4 in
  let v = Mat.vcat c d in
  check_int "vcat rows" 4 v.Mat.rows;
  Alcotest.check mat "vcat bottom" d (Mat.sub_matrix v 3 0 1 4)

let test_mat_trace_norms () =
  let a = Mat.of_lists [ [ 1.0; -2.0 ]; [ 3.0; 4.0 ] ] in
  check_float "norm_inf" 7.0 (Mat.norm_inf a);
  check_float "max_abs" 4.0 (Mat.max_abs a);
  check_float "fro" (sqrt 30.0) (Mat.norm_fro a)

let test_mat_symmetrize () =
  let a = Mat.random ~seed:8 5 5 in
  let s = Mat.symmetrize a in
  Alcotest.check mat "symmetric" s (Mat.transpose s)

let test_mat_mul_vec () =
  let a = Mat.of_lists [ [ 1.0; 2.0 ]; [ 3.0; 4.0 ] ] in
  let v = Vec.of_list [ 1.0; 1.0 ] in
  check_bool "a*v" true
    (Approx.vec (Mat.mul_vec a v) (Vec.of_list [ 3.0; 7.0 ]))

let test_mat_dim_mismatch () =
  let a = Mat.create 2 3 and b = Mat.create 2 3 in
  Alcotest.check_raises "mul mismatch"
    (Invalid_argument "Mat.mul: dimension mismatch") (fun () ->
      ignore (Mat.mul a b))

(* ------------------------------------------------------------------ *)
(* LU                                                                  *)
(* ------------------------------------------------------------------ *)

let test_lu_solve_known () =
  let a = Mat.of_lists [ [ 4.0; 3.0 ]; [ 6.0; 3.0 ] ] in
  let b = Vec.of_list [ 10.0; 12.0 ] in
  let x = (Lu.solve a (Mat.of_vec_col b)).Mat.data in
  check_bool "solution" true (Approx.vec x (Vec.of_list [ 1.0; 2.0 ]))

let test_lu_inverse () =
  let a = Mat.random ~seed:9 6 6 in
  let a = Mat.add a (Mat.scalar 6 3.0) in
  Alcotest.check mat "a * inv a" (Mat.identity 6) (Mat.mul a (Lu.inv a))

let test_lu_det () =
  let a = Mat.of_lists [ [ 2.0; 0.0 ]; [ 0.0; 3.0 ] ] in
  check_float "diag det" 6.0 (Lu.det_factored (Lu.factorize a));
  let perm = Mat.of_lists [ [ 0.0; 1.0 ]; [ 1.0; 0.0 ] ] in
  check_float "swap det" (-1.0) (Lu.det_factored (Lu.factorize perm))

let test_lu_singular () =
  let a = Mat.of_lists [ [ 1.0; 2.0 ]; [ 2.0; 4.0 ] ] in
  Alcotest.check_raises "factorize raises" Lu.Singular (fun () ->
      ignore (Lu.factorize a));
  Alcotest.check_raises "raises" Lu.Singular (fun () -> ignore (Lu.inv a))

let test_lu_solve_right () =
  let a = Mat.add (Mat.random ~seed:10 4 4) (Mat.scalar 4 3.0) in
  let b = Mat.random ~seed:11 2 4 in
  let x = Lu.solve_right b a in
  Alcotest.check mat "x*a = b" b (Mat.mul x a)

(* ------------------------------------------------------------------ *)
(* QR                                                                  *)
(* ------------------------------------------------------------------ *)

let test_qr_least_squares () =
  (* Fit y = 2x + 1 exactly: residual zero. *)
  let xs = [ 0.0; 1.0; 2.0; 3.0 ] in
  let a = Mat.of_lists (List.map (fun x -> [ x; 1.0 ]) xs) in
  let b = Vec.of_list (List.map (fun x -> (2.0 *. x) +. 1.0) xs) in
  let sol = Qr.solve_least_squares a b in
  check_float "slope" 2.0 sol.(0);
  check_float "intercept" 1.0 sol.(1)

let test_qr_least_squares_residual_orthogonal () =
  let a = Mat.random ~seed:15 8 3 in
  let b = Vec.init 8 (fun i -> Float.of_int i) in
  let x = Qr.solve_least_squares a b in
  let res = Vec.sub (Mat.mul_vec a x) b in
  (* Residual of LS solution is orthogonal to the column space. *)
  let proj = Mat.mul_vec (Mat.transpose a) res in
  check_bool "normal equations" true (Vec.norm_inf proj < 1e-8)

(* ------------------------------------------------------------------ *)
(* Eig                                                                 *)
(* ------------------------------------------------------------------ *)

let sorted_real_parts zs =
  let l = Array.to_list zs in
  List.sort compare (List.map (fun (z : Complex.t) -> z.re) l)

let test_eig_diag () =
  let a = Mat.diag (Vec.of_list [ 3.0; -1.0; 0.5 ]) in
  let es = sorted_real_parts (Eig.eigenvalues a) in
  (match es with
  | [ x; y; z ] ->
    check_float_loose "e1" (-1.0) x;
    check_float_loose "e2" 0.5 y;
    check_float_loose "e3" 3.0 z
  | _ -> Alcotest.fail "expected 3 eigenvalues");
  check_float_loose "radius" 3.0 (Eig.spectral_radius a)

let test_eig_rotation_complex () =
  (* Rotation by 90 degrees has eigenvalues +-i. *)
  let a = Mat.of_lists [ [ 0.0; -1.0 ]; [ 1.0; 0.0 ] ] in
  let es = Eig.eigenvalues a in
  let ims = List.sort compare (List.map (fun (z : Complex.t) -> z.im) (Array.to_list es)) in
  (match ims with
  | [ x; y ] ->
    check_float_loose "im -1" (-1.0) x;
    check_float_loose "im +1" 1.0 y
  | _ -> Alcotest.fail "expected 2 eigenvalues");
  check_float_loose "radius" 1.0 (Eig.spectral_radius a)

let test_eig_known_3x3 () =
  (* Companion matrix of (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6. *)
  let a =
    Mat.of_lists
      [ [ 6.0; -11.0; 6.0 ]; [ 1.0; 0.0; 0.0 ]; [ 0.0; 1.0; 0.0 ] ]
  in
  match sorted_real_parts (Eig.eigenvalues a) with
  | [ x; y; z ] ->
    check_float_loose "root 1" 1.0 x;
    check_float_loose "root 2" 2.0 y;
    check_float_loose "root 3" 3.0 z
  | _ -> Alcotest.fail "expected 3 eigenvalues"

let test_eig_trace_sum () =
  let a = Mat.random ~seed:16 8 8 in
  let es = Eig.eigenvalues a in
  let sum_re = Array.fold_left (fun acc (z : Complex.t) -> acc +. z.re) 0.0 es in
  let sum_im = Array.fold_left (fun acc (z : Complex.t) -> acc +. z.im) 0.0 es in
  check_float_loose "sum = trace" (trace a) sum_re;
  check_float_loose "imaginary parts cancel" 0.0 sum_im

let test_eig_stability_predicates () =
  let stable = Mat.diag (Vec.of_list [ 0.5; -0.9 ]) in
  let unstable = Mat.diag (Vec.of_list [ 0.5; -1.1 ]) in
  check_bool "discrete stable" true (Eig.is_stable_discrete stable);
  check_bool "discrete unstable" false (Eig.is_stable_discrete unstable);
  let cs = Mat.diag (Vec.of_list [ -0.1; -2.0 ]) in
  let cu = Mat.diag (Vec.of_list [ -0.1; 0.3 ]) in
  check_bool "continuous stable" true (Eig.is_stable_continuous cs);
  check_bool "continuous unstable" false (Eig.is_stable_continuous cu)

let test_eig_hessenberg_preserves_spectrum () =
  let a = Mat.random ~seed:17 6 6 in
  let h = Eig.hessenberg a in
  (* Hessenberg form: zero below the first subdiagonal. *)
  let ok = ref true in
  for i = 2 to 5 do
    for j = 0 to i - 2 do
      if Float.abs (Mat.get h i j) > 1e-12 then ok := false
    done
  done;
  check_bool "structure" true !ok;
  check_float_loose "same trace" (trace a) (trace h)

let test_eig_symmetric () =
  let a = Mat.of_lists [ [ 2.0; 1.0 ]; [ 1.0; 2.0 ] ] in
  let values = Eig.symmetric_values a in
  check_float_loose "lambda min" 1.0 values.(0);
  check_float_loose "lambda max" 3.0 values.(1)

let test_eig_psd () =
  let b = Mat.of_lists [ [ 1.0; 2.0 ]; [ 2.0; 1.0 ] ] in
  check_bool "indefinite" false (Eig.is_positive_semidefinite b);
  let c = Mat.of_lists [ [ 1.0; 1.0 ]; [ 1.0; 1.0 ] ] in
  check_bool "psd boundary" true (Eig.is_positive_semidefinite c)

(* ------------------------------------------------------------------ *)
(* SVD                                                                 *)
(* ------------------------------------------------------------------ *)

let test_svd_reconstruct () =
  let a = Mat.random ~seed:18 5 3 in
  let u, s, v = Svd.decompose a in
  let recon = Mat.mul3 u (Mat.diag s) (Mat.transpose v) in
  Alcotest.check mat "u s v^T" a recon;
  check_bool "u orthonormal" true (orthonormal_columns u);
  check_bool "v orthonormal" true (orthonormal_columns v)

let test_svd_wide () =
  let a = Mat.random ~seed:19 3 6 in
  let u, s, v = Svd.decompose a in
  let recon = Mat.mul3 u (Mat.diag s) (Mat.transpose v) in
  Alcotest.check mat "wide reconstruction" a recon

let test_svd_descending () =
  let s = Svd.singular_values (Mat.random ~seed:20 6 6) in
  let ok = ref true in
  for i = 0 to Vec.dim s - 2 do
    if s.(i) < s.(i + 1) then ok := false
  done;
  check_bool "descending" true !ok;
  check_bool "non-negative" true (Array.for_all (fun x -> x >= 0.0) s)

let test_svd_known () =
  let a = Mat.diag (Vec.of_list [ 3.0; -4.0 ]) in
  let s = Svd.singular_values a in
  check_float_loose "sv max" 4.0 s.(0);
  check_float_loose "sv min" 3.0 s.(1);
  check_float_loose "norm2" 4.0 (Svd.norm2 a)

let test_svd_rank () =
  let a = Mat.of_lists [ [ 1.0; 2.0 ]; [ 2.0; 4.0 ] ] in
  check_int "rank deficient" 1 (Svd.rank a);
  check_int "full rank" 2 (Svd.rank (Mat.identity 2))

let test_svd_norm2_complex () =
  let re = Mat.diag [| 0.0; 1.0 |] and im = Mat.diag [| 5.0; 0.0 |] in
  check_float_loose "complex norm" 5.0 (Svd.norm2_complex (re, im))

(* ------------------------------------------------------------------ *)
(* Cmat: the oracle's boxed complex matrices                          *)
(* ------------------------------------------------------------------ *)

let test_cmat_mul_inv () =
  let a =
    Cmat.init 3 3 (fun i j ->
        {
          Complex.re = Float.of_int ((i * 3) + j + 1);
          im = (if i = j then 2.0 else -1.0);
        })
  in
  let ai = Cmat.solve a (Cmat.identity 3) in
  check_bool "a * inv a = I" true
    (Cmat.approx_equal ~tol:1e-9 (Cmat.mul a ai) (Cmat.identity 3))

let test_cmat_real_roundtrip () =
  let m = Mat.random ~seed:22 3 4 in
  Alcotest.check mat "of_real/real_part" m (Cmat.real_part (Cmat.of_real m));
  check_bool "imag zero" true
    (Approx.mat (Cmat.imag_part (Cmat.of_real m)) (Mat.create 3 4));
  let im = Mat.random ~seed:25 3 4 in
  let re', im' = Cmat.to_pair (Cmat.of_pair (m, im)) in
  Alcotest.check mat "of_pair/to_pair re" m re';
  Alcotest.check mat "of_pair/to_pair im" im im'

let test_cmat_solve () =
  let a = Cmat.of_real (Mat.add (Mat.random ~seed:23 4 4) (Mat.scalar 4 3.0)) in
  let b = Cmat.of_real (Mat.random ~seed:24 4 2) in
  let x = Cmat.solve a b in
  check_bool "a x = b" true (Cmat.approx_equal ~tol:1e-9 (Cmat.mul a x) b)

(* ------------------------------------------------------------------ *)
(* In-place kernels                                                    *)
(* ------------------------------------------------------------------ *)

(* Exact (bit-level) equality: the in-place kernels promise the same
   float ops in the same order as their allocating counterparts. *)
let mat_exact =
  Alcotest.testable Mat.pp (fun a b ->
      a.Mat.rows = b.Mat.rows && a.Mat.cols = b.Mat.cols
      && a.Mat.data = b.Mat.data)

(* Destination prefilled with garbage: the kernels must overwrite fully. *)
let garbage m n =
  let r = Mat.random ~seed:99 m n in
  { r with Mat.data = Array.map (fun x -> (x *. 17.0) +. 3.0) r.Mat.data }

let elementwise_shapes = [ (3, 3); (2, 5); (5, 2); (1, 1); (0, 0); (0, 3) ]

let test_inplace_elementwise_matches_pure () =
  List.iter
    (fun (m, n) ->
      let seed = (31 * m) + n in
      let a = Mat.random ~seed m n in
      let b = Mat.random ~seed:(seed + 1) m n in
      let dst = garbage m n in
      Mat.add_into ~dst a b;
      Alcotest.check mat_exact "add_into" (Mat.add a b) dst;
      Mat.sub_into ~dst a b;
      Alcotest.check mat_exact "sub_into" (Mat.sub a b) dst;
      Mat.scale_into ~dst 1.7 a;
      Alcotest.check mat_exact "scale_into" (Mat.scale 1.7 a) dst)
    elementwise_shapes

let test_inplace_mul_matches_pure () =
  List.iter
    (fun (m, k, n) ->
      let seed = (7 * m) + (5 * k) + n in
      let a = Mat.random ~seed m k in
      let b = Mat.random ~seed:(seed + 1) k n in
      let dst = garbage m n in
      Mat.mul_into ~dst a b;
      Alcotest.check mat_exact "mul_into" (Mat.mul a b) dst;
      let v = (Mat.random ~seed:(seed + 2) 1 k).Mat.data in
      let vdst = Array.make m Float.nan in
      Mat.mul_vec_into ~dst:vdst a v;
      check_bool "mul_vec_into" true (Mat.mul_vec a v = vdst))
    [ (3, 3, 3); (2, 5, 4); (5, 2, 1); (1, 1, 1); (0, 3, 2); (3, 0, 2) ]

let test_inplace_permutation_matches_pure () =
  List.iter
    (fun (m, n) ->
      let a = Mat.random ~seed:((13 * m) + n) m n in
      let dst = garbage n m in
      Mat.transpose_into ~dst a;
      Alcotest.check mat_exact "transpose_into" (Mat.transpose a) dst;
      if m = n then begin
        let sdst = garbage n n in
        Mat.symmetrize_into ~dst:sdst a;
        Alcotest.check mat_exact "symmetrize_into" (Mat.symmetrize a) sdst
      end)
    elementwise_shapes

let test_inplace_aliasing_rules () =
  let a = Mat.random ~seed:3 3 3 and b = Mat.random ~seed:4 3 3 in
  Alcotest.check_raises "mul_into dst==a"
    (Invalid_argument "Mat.mul_into: dst aliases a source matrix") (fun () ->
      Mat.mul_into ~dst:a a b);
  Alcotest.check_raises "mul_into dst==b"
    (Invalid_argument "Mat.mul_into: dst aliases a source matrix") (fun () ->
      Mat.mul_into ~dst:b a b);
  Alcotest.check_raises "transpose_into dst==a"
    (Invalid_argument "Mat.transpose_into: dst aliases a source matrix")
    (fun () -> Mat.transpose_into ~dst:a a);
  Alcotest.check_raises "symmetrize_into dst==a"
    (Invalid_argument "Mat.symmetrize_into: dst aliases a source matrix")
    (fun () -> Mat.symmetrize_into ~dst:a a);
  let v = [| 1.0; 2.0; 3.0 |] in
  Alcotest.check_raises "mul_vec_into dst==v"
    (Invalid_argument "Mat.mul_vec_into: dst aliases a source") (fun () ->
      Mat.mul_vec_into ~dst:v a v);
  (* Elementwise kernels accept aliasing: each entry is read before
     written. *)
  let c = Mat.copy a in
  Mat.add_into ~dst:c c b;
  Alcotest.check mat_exact "aliased add_into" (Mat.add a b) c;
  (* Zero-length storage is shared by the runtime, so empty in-place ops
     must not trip the aliasing check. *)
  let e1 = Mat.create 0 3 and e2 = Mat.create 3 0 in
  Mat.mul_into ~dst:(Mat.create 0 0) e1 e2

let contains_substring s sub =
  let ls = String.length s and lb = String.length sub in
  let rec scan i = i + lb <= ls && (String.sub s i lb = sub || scan (i + 1)) in
  scan 0

let test_svd_unconverged_reported () =
  (* A dense random 8x8 cannot be column-orthogonalized in one Jacobi
     sweep; with the cap forced to 1 the run must report rather than
     silently return. *)
  let a = Mat.random ~seed:77 8 8 in
  let ctr = Obs.Metrics.counter "svd.unconverged" in
  let before = Obs.Metrics.count ctr in
  Obs.Collector.enable ();
  let s, lines =
    Obs.Collector.capture (fun () -> Svd.singular_values ~max_sweeps:1 a)
  in
  Obs.Collector.disable ();
  check_bool "unconverged counter bumped" true (Obs.Metrics.count ctr > before);
  check_bool "debug record emitted" true
    (List.exists (fun l -> contains_substring l "svd.unconverged") lines);
  check_int "capped run still returns values" 8 (Vec.dim s);
  (* The default cap does converge on the same matrix and reports
     nothing. *)
  let before2 = Obs.Metrics.count ctr in
  Obs.Collector.enable ();
  let s_full, lines2 =
    Obs.Collector.capture (fun () -> Svd.singular_values a)
  in
  Obs.Collector.disable ();
  check_int "no further unconverged" before2 (Obs.Metrics.count ctr);
  check_bool "no debug record" true
    (not (List.exists (fun l -> contains_substring l "svd.unconverged") lines2));
  check_bool "descending" true
    (Array.for_all (fun x -> x <= s_full.(0)) s_full)

(* ------------------------------------------------------------------ *)
(* Francis real QR vs the complex-arithmetic reference                 *)
(* ------------------------------------------------------------------ *)

(* The reference is [Oracle.Eig_ref]. *)

(* Greedy nearest-match pairing. Sorting eigenvalues lexicographically
   mispairs conjugate partners that differ by one ulp in the real part,
   so instead match each reference eigenvalue to its closest remaining
   computed one and report the worst matched distance, each divided by
   [tol] of its reference eigenvalue (1 by default). *)
let max_pair_distance ?(tol = fun _ -> 1.0) reference computed =
  let used = Array.make (Array.length computed) false in
  Array.fold_left
    (fun worst (z : Complex.t) ->
      let best = ref (-1) and bestd = ref infinity in
      Array.iteri
        (fun i (w : Complex.t) ->
          if not used.(i) then begin
            let d = Complex.norm (Complex.sub z w) in
            if d < !bestd then begin
              bestd := d;
              best := i
            end
          end)
        computed;
      used.(!best) <- true;
      Float.max worst (!bestd /. tol z))
    0.0 reference

let francis_matches_ref ?(tol = 1e-6) a =
  let reference = Eig_ref.eigenvalues_complex_ref a in
  let computed = Eig.eigenvalues a in
  Array.length computed = Array.length reference
  && max_pair_distance reference computed
     <= tol *. Float.max 1.0 (Mat.norm_inf a)

(* The Q of a Householder QR of a random square matrix: each reflector
   H = I - 2 v v^T that zeroes a column of [r] is accumulated as q <- q H. *)
let random_orthogonal ~seed n =
  let r = Mat.random ~seed n n and q = Mat.identity n in
  let reflect get set ~len v =
    let dot = ref 0.0 in
    for l = 0 to len - 1 do
      dot := !dot +. (get l *. v.(l))
    done;
    let d2 = 2.0 *. !dot in
    for l = 0 to len - 1 do
      set l (get l -. (d2 *. v.(l)))
    done
  in
  for k = 0 to n - 2 do
    let x = Array.init (n - k) (fun i -> Mat.get r (k + i) k) in
    let normx = Vec.norm2 x in
    if normx > 0.0 then begin
      let v = Array.copy x in
      v.(0) <- v.(0) -. (if x.(0) >= 0.0 then -.normx else normx);
      let vnorm = Vec.norm2 v in
      if vnorm > 1e-300 then begin
        let v = Vec.scale (1.0 /. vnorm) v in
        for j = k to n - 1 do
          reflect (fun l -> Mat.get r (k + l) j)
            (fun l x -> Mat.set r (k + l) j x) ~len:(n - k) v
        done;
        for i = 0 to n - 1 do
          reflect (fun l -> Mat.get q i (k + l))
            (fun l x -> Mat.set q i (k + l) x) ~len:(n - k) v
        done
      end
    end
  done;
  q

let test_eig_francis_repeated () =
  (* Dense matrix orthogonally similar to a triangular one carrying
     eigenvalue 2 with multiplicity 4 and eigenvalue 5 with
     multiplicity 2. The defective cluster perturbs like eps^(1/4), so
     the per-eigenvalue tolerance is loose; the trace identity stays
     tight. *)
  let n = 6 in
  let t =
    Mat.init n n (fun i j ->
        if i = j then if i < 4 then 2.0 else 5.0
        else if j > i then 0.7
        else 0.0)
  in
  let q = random_orthogonal ~seed:31 n in
  let a = Mat.mul3 q t (Mat.transpose q) in
  let es = Eig.eigenvalues a in
  check_int "count" n (Array.length es);
  let near c (z : Complex.t) = Complex.norm { re = z.re -. c; im = z.im } < 5e-3 in
  check_int "multiplicity of 2" 4
    (Array.length (Array.of_list (List.filter (near 2.0) (Array.to_list es))));
  check_int "multiplicity of 5" 2
    (Array.length (Array.of_list (List.filter (near 5.0) (Array.to_list es))));
  let sum = Array.fold_left (fun acc (z : Complex.t) -> acc +. z.re) 0.0 es in
  check_float_loose "trace" (trace a) sum

let test_eig_francis_interior_deflation () =
  (* Exactly block-triangular Hessenberg input: the zero at (4,3) splits
     the 8x8 into two independent 4x4 problems, so Francis must deflate
     at the interior zero instead of chasing bulges across it. *)
  let n = 8 in
  let h =
    Mat.init n n (fun i j ->
        if i > j + 1 then 0.0
        else if i = 4 && j = 3 then 0.0
        else Float.of_int (((i * n) + j) mod 7 - 3) /. 2.0)
  in
  check_bool "matches complex reference" true
    (francis_matches_ref ~tol:1e-7 h);
  (* And with several committed zero subdiagonals at once. *)
  let h2 =
    Mat.init n n (fun i j ->
        if i > j + 1 then 0.0
        else if i = j + 1 && (i = 2 || i = 5) then 0.0
        else Float.of_int (((3 * i) + (2 * j)) mod 5 - 2))
  in
  check_bool "multiple splits" true (francis_matches_ref ~tol:1e-7 h2)

let test_eig_francis_clustered_symmetric () =
  (* Tight spectral clusters (gaps of 1e-8) are the classic stall case
     for naive shift strategies; the exact spectrum is known by
     construction. *)
  let d =
    Vec.of_list [ 1.0; 1.0 +. 1e-8; 1.0 +. 2e-8; 4.0; 4.0 +. 1e-8; 7.0 ]
  in
  let n = Vec.dim d in
  let q = random_orthogonal ~seed:57 n in
  let a = Mat.mul3 q (Mat.diag d) (Mat.transpose q) in
  let reference = Array.map (fun x -> { Complex.re = x; im = 0.0 }) d in
  let computed = Eig.eigenvalues a in
  check_int "count" n (Array.length computed);
  check_bool "clustered spectrum recovered" true
    (max_pair_distance reference computed < 1e-6)

(* ------------------------------------------------------------------ *)
(* Properties (qcheck)                                                 *)
(* ------------------------------------------------------------------ *)

let small_float = QCheck.Gen.float_range (-5.0) 5.0

let gen_mat n =
  QCheck.Gen.(
    array_size (return (n * n)) small_float
    |> map (fun data -> { Mat.rows = n; cols = n; data }))

let arb_mat3 = QCheck.make ~print:(Format.asprintf "%a" Mat.pp) (gen_mat 3)

let arb_mat_pair =
  QCheck.make
    ~print:(fun (a, b) -> Format.asprintf "%a@.%a" Mat.pp a Mat.pp b)
    QCheck.Gen.(pair (gen_mat 3) (gen_mat 3))

let arb_mat_sized =
  QCheck.make
    ~print:(Format.asprintf "%a" Mat.pp)
    QCheck.Gen.(int_range 4 16 >>= gen_mat)

let prop_francis_matches_reference =
  QCheck.Test.make ~name:"francis real qr = complex qr reference" ~count:60
    arb_mat_sized francis_matches_ref

(* The real embedding [[re -im]; [im re]] of a random complex n x n
   matrix, n = 1..6: its spectrum is the complex one plus its conjugate,
   the shape the SSV lower bound hands to Francis QR. About a fifth of
   the entries are exactly zero, a fifth purely real and a fifth purely
   imaginary, with magnitudes over four decades. *)
let arb_complex_embedding =
  let part =
    QCheck.Gen.(
      map2
        (fun x e -> x *. (10.0 ** Float.of_int e))
        (float_range (-1.0) 1.0) (int_range (-2) 1))
  in
  let entry =
    QCheck.Gen.(
      map3
        (fun kind re im ->
          ( (if kind = 0 || kind = 2 then 0.0 else re),
            if kind = 0 || kind = 1 then 0.0 else im ))
        (int_bound 4) part part)
  in
  let embed n entries =
    let re = { Mat.rows = n; cols = n; data = Array.map fst entries }
    and im = { Mat.rows = n; cols = n; data = Array.map snd entries } in
    Mat.blocks [ [ re; Mat.neg im ]; [ im; re ] ]
  in
  QCheck.make
    ~print:(Format.asprintf "%a" Mat.pp)
    QCheck.Gen.(
      int_range 1 6 >>= fun n -> map (embed n) (array_size (return (n * n)) entry))

(* Exact zeros make some embeddings defective (a nilpotent M puts
   Jordan blocks on 0). Both methods deflate at 1e-13 relative, so their
   backward errors reach about 1e-13 |A|, and a cluster of m eigenvalues
   can scatter by (1e-13)^(1/m) |A|. A reference eigenvalue with m
   reference eigenvalues within 1e-2 |A| (itself included) may therefore
   lie up to |A| max(1e-6, (1e-13)^(1/m)) from its match. *)
let embedding_matches_ref a =
  let reference = Eig_ref.eigenvalues_complex_ref a in
  let computed = Eig.eigenvalues a in
  let scale = Float.max 1.0 (Mat.norm_inf a) in
  let tol (z : Complex.t) =
    let m =
      Array.fold_left
        (fun m w ->
          if Complex.norm (Complex.sub z w) <= 1e-2 *. scale then m + 1 else m)
        0 reference
    in
    scale *. Float.max 1e-6 (1e-13 ** (1.0 /. Float.of_int m))
  in
  Array.length computed = Array.length reference
  && max_pair_distance ~tol reference computed <= 1.0

let prop_francis_complex_embedding =
  QCheck.Test.make ~name:"francis converges on complex embeddings = reference"
    ~count:2000 arb_complex_embedding embedding_matches_ref

let prop_transpose_product =
  QCheck.Test.make ~name:"(ab)^T = b^T a^T" ~count:100 arb_mat_pair
    (fun (a, b) ->
      Approx.mat ~tol:1e-8
        (Mat.transpose (Mat.mul a b))
        (Mat.mul (Mat.transpose b) (Mat.transpose a)))

let prop_add_commutative =
  QCheck.Test.make ~name:"a+b = b+a" ~count:100 arb_mat_pair (fun (a, b) ->
      Approx.mat (Mat.add a b) (Mat.add b a))

let prop_trace_similarity =
  QCheck.Test.make ~name:"trace(ab) = trace(ba)" ~count:100 arb_mat_pair
    (fun (a, b) ->
      Float.abs (trace (Mat.mul a b) -. trace (Mat.mul b a)) < 1e-7)

let prop_lu_solve =
  QCheck.Test.make ~name:"lu solve residual" ~count:100 arb_mat3 (fun a ->
      (* Shift to ensure invertibility. *)
      let a = Mat.add a (Mat.scalar 3 20.0) in
      let b = Vec.of_list [ 1.0; -2.0; 0.5 ] in
      let x = (Lu.solve a (Mat.of_vec_col b)).Mat.data in
      Vec.norm_inf (Vec.sub (Mat.mul_vec a x) b) < 1e-7)

let prop_svd_norm_bounds =
  QCheck.Test.make ~name:"fro >= 2-norm >= fro/sqrt(n)" ~count:60 arb_mat3
    (fun a ->
      let two = Svd.norm2 a and fro = Mat.norm_fro a in
      two <= fro +. 1e-7 && fro <= (two *. sqrt 3.0) +. 1e-7)

let prop_spectral_radius_bounded =
  QCheck.Test.make ~name:"rho(a) <= ||a||_inf" ~count:60 arb_mat3 (fun a ->
      Eig.spectral_radius a <= Mat.norm_inf a +. 1e-6)

let prop_symmetric_eig_bounds =
  QCheck.Test.make ~name:"symmetric eig within gershgorin" ~count:60 arb_mat3
    (fun a ->
      let s = Mat.symmetrize a in
      let values = Eig.symmetric_values s in
      let bound = Mat.norm_inf s +. 1e-7 in
      Array.for_all (fun x -> Float.abs x <= bound) values)

let prop_inplace_mul_exact =
  QCheck.Test.make ~name:"mul_into bitwise equals mul" ~count:100 arb_mat_pair
    (fun (a, b) ->
      let dst = Mat.create 3 3 in
      Mat.mul_into ~dst a b;
      dst.Mat.data = (Mat.mul a b).Mat.data)

let prop_inplace_add_sub_exact =
  QCheck.Test.make ~name:"add_into/sub_into bitwise equal add/sub" ~count:100
    arb_mat_pair (fun (a, b) ->
      let dst = Mat.create 3 3 in
      Mat.add_into ~dst a b;
      let add_ok = dst.Mat.data = (Mat.add a b).Mat.data in
      Mat.sub_into ~dst a b;
      add_ok && dst.Mat.data = (Mat.sub a b).Mat.data)

(* The LU path before factorizations swapped rows in place and solves
   substituted every column at once: one [solve_vec] per column of the
   right-hand side, inverse and determinant each from its own
   factorization. Kept as the oracle for the bit-identity property. *)
module Lu_ref = struct
  let factorize a =
    let n = a.Mat.rows in
    let lu = Mat.copy a in
    let perm = Array.init n (fun i -> i) in
    let sign = ref 1.0 in
    let tol = 1e-13 *. Float.max 1.0 (Mat.max_abs a) in
    for k = 0 to n - 1 do
      let pivot_row = ref k in
      for i = k + 1 to n - 1 do
        if Float.abs (Mat.get lu i k) > Float.abs (Mat.get lu !pivot_row k)
        then pivot_row := i
      done;
      if Float.abs (Mat.get lu !pivot_row k) <= tol then raise Lu.Singular;
      if !pivot_row <> k then begin
        let tmp = Mat.row lu k in
        Mat.set_row lu k (Mat.row lu !pivot_row);
        Mat.set_row lu !pivot_row tmp;
        let t = perm.(k) in
        perm.(k) <- perm.(!pivot_row);
        perm.(!pivot_row) <- t;
        sign := -. !sign
      end;
      let pivot = Mat.get lu k k in
      for i = k + 1 to n - 1 do
        let m = Mat.get lu i k /. pivot in
        Mat.set lu i k m;
        if m <> 0.0 then
          for j = k + 1 to n - 1 do
            Mat.set lu i j (Mat.get lu i j -. (m *. Mat.get lu k j))
          done
      done
    done;
    (lu, perm, !sign)

  let solve_vec (lu, perm, _) b =
    let n = lu.Mat.rows in
    let x = Array.init n (fun i -> b.(perm.(i))) in
    for i = 1 to n - 1 do
      for j = 0 to i - 1 do
        x.(i) <- x.(i) -. (Mat.get lu i j *. x.(j))
      done
    done;
    for i = n - 1 downto 0 do
      for j = i + 1 to n - 1 do
        x.(i) <- x.(i) -. (Mat.get lu i j *. x.(j))
      done;
      x.(i) <- x.(i) /. Mat.get lu i i
    done;
    x

  let solve a b =
    let f = factorize a in
    let r = Mat.create b.Mat.rows b.Mat.cols in
    for j = 0 to b.Mat.cols - 1 do
      Mat.set_col r j (solve_vec f (Mat.col b j))
    done;
    r

  let inv a = solve a (Mat.identity a.Mat.rows)

  let det a =
    match factorize a with
    | lu, _, sign ->
      let d = ref sign in
      for i = 0 to lu.Mat.rows - 1 do
        d := !d *. Mat.get lu i i
      done;
      !d
    | exception Lu.Singular -> 0.0
end

(* Random square matrices of order 1-20; a third are made singular by
   copying a scaled row (or zeroing a column), so [Singular] shows up on
   both sides. *)
let arb_lu_case =
  let gen =
    QCheck.Gen.(
      map
        (fun (seed, n, kind) ->
          let a = Mat.random ~seed n n in
          (match kind with
          | 0 when n > 1 ->
            Mat.set_row a (n - 1) (Vec.scale 3.0 (Mat.row a 0))
          | 1 -> Mat.set_col a (n / 2) (Vec.create n)
          | _ -> ());
          let b = Mat.random ~seed:(seed + 1) n (1 + (seed mod 5)) in
          (a, b))
        (triple (int_bound 100_000) (int_range 1 20) (int_bound 5)))
  in
  QCheck.make
    ~print:(fun (a, _) -> Format.asprintf "%a" Mat.pp a)
    gen

let bits m = Array.map Int64.bits_of_float m.Mat.data

let outcome f =
  match f () with v -> Ok v | exception Lu.Singular -> Error ()

let prop_lu_factored_bits =
  QCheck.Test.make ~name:"factored inv/det/solve = per-column reference bits"
    ~count:200 arb_lu_case (fun (a, b) ->
      let f = outcome (fun () -> Lu.factorize a) in
      let ref_inv = outcome (fun () -> bits (Lu_ref.inv a)) in
      let det_bits x = Int64.bits_of_float x in
      Result.map (fun f -> bits (Lu.inv_factored f)) f = ref_inv
      && outcome (fun () -> bits (Lu.inv a)) = ref_inv
      && outcome (fun () -> bits (Lu.solve a b))
         = outcome (fun () -> bits (Lu_ref.solve a b))
      &&
      match f with
      | Ok f -> det_bits (Lu.det_factored f) = det_bits (Lu_ref.det a)
      | Error () -> Lu_ref.det a = 0.0)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_transpose_product;
      prop_add_commutative;
      prop_trace_similarity;
      prop_lu_solve;
      prop_svd_norm_bounds;
      prop_spectral_radius_bounded;
      prop_symmetric_eig_bounds;
      prop_francis_matches_reference;
      prop_inplace_mul_exact;
      prop_inplace_add_sub_exact;
      prop_lu_factored_bits;
    ]


(* ------------------------------------------------------------------ *)
(* Round 2: degenerate shapes and numerical edges                      *)
(* ------------------------------------------------------------------ *)

let test_empty_matrix_ops () =
  let e = Mat.create 0 0 in
  check_int "rows" 0 e.Mat.rows;
  let p = Mat.mul e e in
  check_int "product empty" 0 p.Mat.rows;
  check_float "fro" 0.0 (Mat.norm_fro e)

let test_one_by_one () =
  let a = Mat.of_lists [ [ 4.0 ] ] in
  check_float "det" 4.0 (Lu.det_factored (Lu.factorize a));
  check_float "inv" 0.25 (Mat.get (Lu.inv a) 0 0);
  let s = Svd.singular_values a in
  check_float "sv" 4.0 s.(0);
  let es = Eig.eigenvalues a in
  check_float "eig" 4.0 es.(0).Complex.re

let test_lu_ill_conditioned_solve () =
  (* Hilbert-like 4x4: ill conditioned but solvable; residual must stay
     small even if the error grows. *)
  let a = Mat.init 4 4 (fun i j -> 1.0 /. Float.of_int (i + j + 1)) in
  let x_true = Vec.of_list [ 1.0; -1.0; 2.0; 0.5 ] in
  let b = Mat.mul_vec a x_true in
  let x = (Lu.solve a (Mat.of_vec_col b)).Mat.data in
  let resid = Vec.norm_inf (Vec.sub (Mat.mul_vec a x) b) in
  check_bool "residual tiny" true (resid < 1e-10)

let test_eig_repeated_eigenvalues () =
  (* Jordan-ish block: repeated eigenvalue 2. *)
  let a = Mat.of_lists [ [ 2.0; 1.0 ]; [ 0.0; 2.0 ] ] in
  let es = Eig.eigenvalues a in
  Array.iter
    (fun (z : Complex.t) ->
      check_bool "eigenvalue 2" true
        (Float.abs (z.re -. 2.0) < 1e-6 && Float.abs z.im < 1e-6))
    es

let test_svd_zero_matrix () =
  let s = Svd.singular_values (Mat.create 3 2) in
  check_bool "all zero" true (Array.for_all (fun x -> x = 0.0) s);
  check_float "norm2" 0.0 (Svd.norm2 (Mat.create 3 2));
  check_int "rank" 0 (Svd.rank (Mat.create 3 2))

let test_cmat_singular_solve_raises () =
  let z = Cmat.create 2 2 in
  Alcotest.check_raises "singular" Lu.Singular (fun () ->
      ignore (Cmat.solve z (Cmat.identity 2)))

let round2_cases =
  [
    Alcotest.test_case "empty matrices" `Quick test_empty_matrix_ops;
    Alcotest.test_case "1x1" `Quick test_one_by_one;
    Alcotest.test_case "ill conditioned" `Quick test_lu_ill_conditioned_solve;
    Alcotest.test_case "repeated eigenvalues" `Quick
      test_eig_repeated_eigenvalues;
    Alcotest.test_case "svd zero" `Quick test_svd_zero_matrix;
    Alcotest.test_case "cmat singular" `Quick test_cmat_singular_solve_raises;
  ]

let () =
  Alcotest.run "linalg"
    [
      ( "vec",
        [
          Alcotest.test_case "basic" `Quick test_vec_basic;
          Alcotest.test_case "arith" `Quick test_vec_arith;
          Alcotest.test_case "basis" `Quick test_vec_basis;
          Alcotest.test_case "norm2 overflow" `Quick test_vec_norm2_overflow;
          Alcotest.test_case "slice/concat" `Quick test_vec_slice_concat;
        ] );
      ( "mat",
        [
          Alcotest.test_case "identity mul" `Quick test_mat_identity_mul;
          Alcotest.test_case "transpose" `Quick test_mat_transpose;
          Alcotest.test_case "mul known" `Quick test_mat_mul_known;
          Alcotest.test_case "blocks" `Quick test_mat_blocks;
          Alcotest.test_case "block roundtrip" `Quick test_mat_block_roundtrip;
          Alcotest.test_case "hcat/vcat" `Quick test_mat_hcat_vcat;
          Alcotest.test_case "trace and norms" `Quick test_mat_trace_norms;
          Alcotest.test_case "symmetrize" `Quick test_mat_symmetrize;
          Alcotest.test_case "mul_vec" `Quick test_mat_mul_vec;
          Alcotest.test_case "dim mismatch" `Quick test_mat_dim_mismatch;
        ] );
      ( "lu",
        [
          Alcotest.test_case "solve known" `Quick test_lu_solve_known;
          Alcotest.test_case "inverse" `Quick test_lu_inverse;
          Alcotest.test_case "det" `Quick test_lu_det;
          Alcotest.test_case "singular" `Quick test_lu_singular;
          Alcotest.test_case "solve_right" `Quick test_lu_solve_right;
        ] );
      ( "qr",
        [
          Alcotest.test_case "least squares exact" `Quick test_qr_least_squares;
          Alcotest.test_case "ls residual orthogonal" `Quick
            test_qr_least_squares_residual_orthogonal;
        ] );
      ( "eig",
        [
          Alcotest.test_case "diagonal" `Quick test_eig_diag;
          Alcotest.test_case "rotation complex pair" `Quick
            test_eig_rotation_complex;
          Alcotest.test_case "companion 3x3" `Quick test_eig_known_3x3;
          Alcotest.test_case "trace = sum" `Quick test_eig_trace_sum;
          Alcotest.test_case "stability predicates" `Quick
            test_eig_stability_predicates;
          Alcotest.test_case "hessenberg" `Quick
            test_eig_hessenberg_preserves_spectrum;
          Alcotest.test_case "symmetric" `Quick test_eig_symmetric;
          Alcotest.test_case "psd checks" `Quick test_eig_psd;
          Alcotest.test_case "francis repeated eigenvalues" `Quick
            test_eig_francis_repeated;
          Alcotest.test_case "francis interior deflation" `Quick
            test_eig_francis_interior_deflation;
          Alcotest.test_case "francis clustered symmetric" `Quick
            test_eig_francis_clustered_symmetric;
          QCheck_alcotest.to_alcotest prop_francis_complex_embedding;
        ] );
      ( "svd",
        [
          Alcotest.test_case "reconstruct tall" `Quick test_svd_reconstruct;
          Alcotest.test_case "reconstruct wide" `Quick test_svd_wide;
          Alcotest.test_case "descending" `Quick test_svd_descending;
          Alcotest.test_case "known values" `Quick test_svd_known;
          Alcotest.test_case "rank" `Quick test_svd_rank;
          Alcotest.test_case "complex norm" `Quick test_svd_norm2_complex;
        ] );
      ( "cmat",
        [
          Alcotest.test_case "mul/inv" `Quick test_cmat_mul_inv;
          Alcotest.test_case "real roundtrip" `Quick test_cmat_real_roundtrip;
          Alcotest.test_case "solve" `Quick test_cmat_solve;
        ] );
      ( "inplace",
        [
          Alcotest.test_case "elementwise = pure" `Quick
            test_inplace_elementwise_matches_pure;
          Alcotest.test_case "mul = pure" `Quick test_inplace_mul_matches_pure;
          Alcotest.test_case "transpose/symmetrize = pure" `Quick
            test_inplace_permutation_matches_pure;
          Alcotest.test_case "aliasing rules" `Quick test_inplace_aliasing_rules;
          Alcotest.test_case "svd unconverged reported" `Quick
            test_svd_unconverged_reported;
        ] );
      ("edge cases", round2_cases);
      ("properties", qcheck_cases);
    ]
