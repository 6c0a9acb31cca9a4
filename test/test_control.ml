(* Tests for the control-theory stack: state-space algebra, discretization,
   Riccati solvers, LQG, H-infinity synthesis, structured singular values
   and D-K iteration. *)

open Linalg
open Control
open Oracle

let check_float = Alcotest.(check (float 1e-9))
let check_float_loose = Alcotest.(check (float 1e-6))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mat = Alcotest.testable Mat.pp (Approx.mat ~tol:1e-7)

let m1x1 x = Mat.of_lists [ [ x ] ]

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let mat_same_bits a b =
  Mat.dims a = Mat.dims b && Array.for_all2 same_bits a.Mat.data b.Mat.data

(* A (re, im) pair holds the boxed matrix [g], bit for bit. *)
let pair_same_bits (re, im) g =
  let re', im' = Cmat.to_pair g in
  mat_same_bits re re' && mat_same_bits im im'

(* ------------------------------------------------------------------ *)
(* Ss                                                                  *)
(* ------------------------------------------------------------------ *)

let first_order ?(domain = Ss.Continuous) a b c d =
  Ss.make ~domain ~a:(m1x1 a) ~b:(m1x1 b) ~c:(m1x1 c) ~d:(m1x1 d) ()

let test_ss_dims () =
  let sys = first_order (-1.0) 1.0 1.0 0.0 in
  check_int "order" 1 (Ss.order sys);
  check_int "inputs" 1 (Ss.inputs sys);
  check_int "outputs" 1 (Ss.outputs sys);
  Alcotest.check_raises "bad dims"
    (Invalid_argument "Ss.make: B row count must match A") (fun () ->
      ignore
        (Ss.make ~a:(Mat.identity 2) ~b:(Mat.create 1 1) ~c:(Mat.create 1 2)
           ~d:(Mat.create 1 1) ()))

let test_ss_dcgain () =
  (* x' = -2x + u, y = 3x: dc gain 1.5. *)
  let sys = first_order (-2.0) 1.0 3.0 0.0 in
  check_float "continuous" 1.5 (Mat.get (Ss.dcgain sys) 0 0);
  (* Discrete x' = 0.5x + u, y = x: dc gain 1/(1-0.5) = 2. *)
  let dsys = first_order ~domain:(Ss.Discrete 1.0) 0.5 1.0 1.0 0.0 in
  check_float "discrete" 2.0 (Mat.get (Ss.dcgain dsys) 0 0)

let test_ss_simulate_step () =
  (* Discrete integrator x' = x + u, y = x: step input accumulates. *)
  let sys = first_order ~domain:(Ss.Discrete 1.0) 1.0 1.0 1.0 0.0 in
  let us = Array.make 5 (Vec.of_list [ 1.0 ]) in
  let ys = Simulate.ss sys us in
  check_float "first output is x0" 0.0 ys.(0).(0);
  check_float "accumulates" 4.0 ys.(4).(0)

let test_ss_freq_response () =
  (* Continuous first-order low-pass: |G(jw)| = 1/sqrt(1+w^2) at a=-1. *)
  let sys = first_order (-1.0) 1.0 1.0 0.0 in
  let ((re, im) as g) = Ss.freq_response sys 1.0 in
  check_float_loose "magnitude" (1.0 /. Float.sqrt 2.0)
    (Float.hypot (Mat.get re 0 0) (Mat.get im 0 0));
  check_bool "boxed bits" true (pair_same_bits g (Freq_ref.response sys 1.0))

let test_ss_hinf_norm_lowpass () =
  (* Peak of 1/(s+1) is 1 at dc. *)
  let sys = first_order (-1.0) 1.0 1.0 0.0 in
  let n = Ss.hinf_norm sys in
  check_bool "close to 1" true (Float.abs (n -. 1.0) < 1e-3)

let test_ss_hinf_norm_unstable () =
  check_bool "inf" true
    (Ss.hinf_norm (first_order 1.0 1.0 1.0 0.0) = infinity)

let test_ss_lft_identity () =
  (* P = [[0, I]; [I, 0]] makes F_l(P, K) = K. *)
  let p =
    Ss.make ~domain:(Ss.Discrete 1.0)
      ~a:(Mat.create 0 0) ~b:(Mat.create 0 2)
      ~c:(Mat.create 2 0)
      ~d:(Mat.of_lists [ [ 0.0; 1.0 ]; [ 1.0; 0.0 ] ])
      ()
  in
  let k = first_order ~domain:(Ss.Discrete 1.0) 0.3 1.0 0.7 0.2 in
  let cl = Ss.lft_lower p k in
  check_float_loose "same dc" (Mat.get (Ss.dcgain k) 0 0)
    (Mat.get (Ss.dcgain cl) 0 0)

(* ------------------------------------------------------------------ *)
(* Discretize                                                          *)
(* ------------------------------------------------------------------ *)

let test_tustin_roundtrip () =
  let sys =
    Ss.make
      ~a:(Mat.of_lists [ [ -1.0; 0.5 ]; [ 0.0; -3.0 ] ])
      ~b:(Mat.of_lists [ [ 1.0 ]; [ 1.0 ] ])
      ~c:(Mat.of_lists [ [ 1.0; 0.0 ] ])
      ~d:(m1x1 0.1) ()
  in
  let back = Discretize.d2c_tustin (Discretize.c2d_tustin sys 0.2) in
  Alcotest.check mat "a roundtrip" sys.Ss.a back.Ss.a;
  Alcotest.check mat "b roundtrip" sys.Ss.b back.Ss.b;
  Alcotest.check mat "c roundtrip" sys.Ss.c back.Ss.c;
  Alcotest.check mat "d roundtrip" sys.Ss.d back.Ss.d

let test_tustin_preserves_hinf () =
  let sys =
    Ss.make
      ~a:(Mat.of_lists [ [ -0.5; 1.0 ]; [ -1.0; -0.5 ] ])
      ~b:(Mat.of_lists [ [ 1.0 ]; [ 0.0 ] ])
      ~c:(Mat.of_lists [ [ 0.0; 1.0 ] ])
      ~d:(m1x1 0.0) ()
  in
  let d = Discretize.c2d_tustin sys 0.5 in
  let nc = Ss.hinf_norm sys and nd = Ss.hinf_norm d in
  check_bool "norm preserved" true (Float.abs (nc -. nd) /. nc < 0.02)

let test_tustin_preserves_stability () =
  let stable = first_order (-0.3) 1.0 1.0 0.0 in
  check_bool "stable" true
    (Ss.is_stable (Discretize.c2d_tustin stable 1.0));
  let unstable = first_order 0.3 1.0 1.0 0.0 in
  check_bool "unstable" false
    (Ss.is_stable (Discretize.c2d_tustin unstable 1.0))

(* ------------------------------------------------------------------ *)
(* Care                                                                *)
(* ------------------------------------------------------------------ *)

let test_care_scalar () =
  (* a=1,b=1,q=1,r=1: x^2 - 2x - 1 = 0 -> x = 1 + sqrt 2. *)
  let x = Care.solve ~a:(m1x1 1.0) ~b:(m1x1 1.0) ~q:(m1x1 1.0) ~r:(m1x1 1.0) in
  check_float_loose "scalar care" (1.0 +. Float.sqrt 2.0) (Mat.get x 0 0)

let test_care_residual_random () =
  let a = Mat.random ~seed:32 4 4 in
  let b = Mat.random ~seed:33 4 2 in
  let q = Mat.add (Mat.symmetrize (Mat.random ~seed:34 4 4)) (Mat.scalar 4 5.0) in
  let r = Mat.identity 2 in
  let x = Care.solve ~a ~b ~q ~r in
  check_bool "residual small" true (Residual.care ~a ~b ~q ~r x < 1e-7);
  check_bool "psd" true (Eig.is_positive_semidefinite x);
  (* Closed loop A - G X must be Hurwitz. *)
  let g = Mat.mul b (Mat.transpose b) in
  check_bool "stabilizing" true
    (Eig.is_stable_continuous (Mat.sub a (Mat.mul g x)))

let test_care_no_solution () =
  (* Undetectable unstable mode: a = 1, q = 0 -> Hamiltonian eigenvalues
     at +-1 but extraction is inconsistent for stabilizing X >= 0 with
     b = 0 (uncontrollable). *)
  Alcotest.check_raises "uncontrollable"
    (Care.No_solution "sign iteration hit a singular iterate")
    (fun () ->
      ignore
        (Care.solve ~a:(m1x1 0.0) ~b:(m1x1 0.0) ~q:(m1x1 0.0) ~r:(m1x1 1.0)))

(* ------------------------------------------------------------------ *)
(* Dare                                                                *)
(* ------------------------------------------------------------------ *)

let test_dare_scalar_golden () =
  (* a=1,b=1,q=1,r=1: x = golden ratio. *)
  let x = Dare.solve ~a:(m1x1 1.0) ~b:(m1x1 1.0) ~q:(m1x1 1.0) ~r:(m1x1 1.0) in
  check_float_loose "golden ratio" ((1.0 +. Float.sqrt 5.0) /. 2.0)
    (Mat.get x 0 0)

let test_dare_residual_random () =
  let a = Mat.scale 0.9 (Mat.random ~seed:35 4 4) in
  let b = Mat.random ~seed:36 4 2 in
  let q = Mat.add (Mat.symmetrize (Mat.random ~seed:37 4 4)) (Mat.scalar 4 5.0) in
  let r = Mat.identity 2 in
  let x = Dare.solve ~a ~b ~q ~r in
  check_bool "residual small" true (Residual.dare ~a ~b ~q ~r x < 1e-8);
  check_bool "psd" true (Eig.is_positive_semidefinite x);
  let k = Dare.gain ~a ~b ~r x in
  check_bool "stabilizing" true (Eig.is_stable_discrete (Mat.sub a (Mat.mul b k)))

let test_dare_stabilizes_unstable () =
  let a = Mat.of_lists [ [ 1.2; 1.0 ]; [ 0.0; 1.1 ] ] in
  let b = Mat.of_lists [ [ 0.0 ]; [ 1.0 ] ] in
  let q = Mat.identity 2 and r = m1x1 1.0 in
  let x = Dare.solve ~a ~b ~q ~r in
  let k = Dare.gain ~a ~b ~r x in
  check_bool "closed loop schur" true
    (Eig.is_stable_discrete (Mat.sub a (Mat.mul b k)))

(* ------------------------------------------------------------------ *)
(* Lqg                                                                 *)
(* ------------------------------------------------------------------ *)

let test_kalman_gain_dual () =
  (* The Kalman gain of (a, c) should equal the transpose of the LQR gain
     story on the dual system: just check the predictor is stable. *)
  let a = Mat.of_lists [ [ 1.05; 0.2 ]; [ 0.0; 0.8 ] ] in
  let c = Mat.of_lists [ [ 1.0; 0.0 ] ] in
  let l = Lqg.kalman_gain ~a ~c ~w:(Mat.identity 2) ~v:(m1x1 0.5) in
  check_bool "predictor stable" true
    (Eig.is_stable_discrete (Mat.sub a (Mat.mul l c)))

(* ------------------------------------------------------------------ *)
(* Hinf                                                                *)
(* ------------------------------------------------------------------ *)

(* Mixed-sensitivity-style plant around the unstable x' = x + u + d:
   z1 = x, z2 = 0.3 u, y = x + 0.1 n, w = [d; n]. *)
let hinf_test_plant () =
  let a = m1x1 1.0 in
  let b = Mat.of_lists [ [ 1.0; 0.0; 1.0 ] ] in
  let c = Mat.of_lists [ [ 1.0 ]; [ 0.0 ]; [ 1.0 ] ] in
  let d =
    Mat.of_lists
      [ [ 0.0; 0.0; 0.0 ]; [ 0.0; 0.0; 0.3 ]; [ 0.0; 0.1; 0.0 ] ]
  in
  { Hinf.sys = Ss.make ~a ~b ~c ~d (); part = { Hinf.nw = 2; nu = 1; nz = 2; ny = 1 } }

let test_hinf_continuous () =
  let plant = hinf_test_plant () in
  let { Hinf.controller; gamma; achieved_norm } = Hinf.synthesize plant in
  let cl = Hinf.close_loop plant controller in
  check_bool "closed loop stable" true (Ss.is_stable cl);
  check_bool "norm within gamma" true (achieved_norm <= (gamma *. 1.05) +. 1e-9);
  check_bool "gamma sensible" true (gamma > 0.1 && gamma < 100.0)

let test_hinf_gamma_monotone () =
  (* Any gamma above the optimum must also be feasible. *)
  let plant = hinf_test_plant () in
  let { Hinf.gamma; _ } = Hinf.synthesize plant in
  (match Hinf.synthesize_at plant (2.0 *. gamma) with
  | Some k ->
    check_bool "still stabilizing" true
      (Ss.is_stable (Hinf.close_loop plant k))
  | None -> Alcotest.fail "2x optimal gamma should be feasible")

let test_hinf_discrete () =
  (* Same design problem on a discrete plant at period 0.1: the unstable
     x+ = 1.105 x + 0.105 (u + d), roughly the continuous plant sampled
     behind a hold. *)
  let cont = hinf_test_plant () in
  let dsys =
    Ss.make ~domain:(Ss.Discrete 0.1) ~a:(m1x1 1.105)
      ~b:(Mat.of_lists [ [ 0.105; 0.0; 0.105 ] ])
      ~c:cont.Hinf.sys.Ss.c ~d:cont.Hinf.sys.Ss.d ()
  in
  let plant = { cont with Hinf.sys = dsys } in
  let { Hinf.controller; gamma; achieved_norm } = Hinf.synthesize plant in
  (match controller.Ss.domain with
  | Ss.Discrete p -> check_float "controller period" 0.1 p
  | Ss.Continuous -> Alcotest.fail "controller should be discrete");
  let cl = Hinf.close_loop plant controller in
  check_bool "stable" true (Ss.is_stable cl);
  check_bool "norm ok" true (achieved_norm <= (gamma *. 1.05) +. 1e-9)

let test_hinf_bad_partition () =
  let plant = hinf_test_plant () in
  let bad = { plant with Hinf.part = { plant.Hinf.part with Hinf.nw = 1 } } in
  Alcotest.check_raises "partition" (Invalid_argument "Hinf: inputs <> nw + nu")
    (fun () -> Hinf.validate_partition bad)

(* ------------------------------------------------------------------ *)
(* Ssv                                                                 *)
(* ------------------------------------------------------------------ *)

let cm_of_real rows =
  let re = Mat.of_lists rows in
  (re, Mat.create re.Mat.rows re.Mat.cols)

let test_mu_single_full_block () =
  (* With one full block, mu equals the maximum singular value. *)
  let m = cm_of_real [ [ 1.0; 2.0 ]; [ 0.0; 1.5 ] ] in
  let { Ssv.value; _ } = Ssv.mu_upper [ Ssv.Full (2, 2) ] m in
  check_float_loose "mu = sigma_max" (Svd.norm2_complex m) value

let test_mu_diagonal_scalars () =
  (* Diagonal M with scalar blocks: mu = max |m_ii| (both bounds tight). *)
  let m = cm_of_real [ [ 2.0; 0.0 ]; [ 0.0; -3.0 ] ] in
  let s = [ Ssv.Full (1, 1); Ssv.Full (1, 1) ] in
  let ub = (Ssv.mu_upper s m).Ssv.value in
  let lb = Ssv.mu_lower s m in
  check_bool "ub >= 3" true (ub >= 3.0 -. 1e-6);
  check_bool "lb <= ub" true (lb <= ub +. 1e-9);
  check_bool "lb >= 3" true (lb >= 3.0 -. 1e-4)

let test_mu_scaling_beats_sigma () =
  (* Classic example: scaling strictly improves on sigma_max for a
     triangular matrix with large off-diagonal coupling. *)
  let m = cm_of_real [ [ 1.0; 100.0 ]; [ 0.0; 1.0 ] ] in
  let s = [ Ssv.Full (1, 1); Ssv.Full (1, 1) ] in
  let ub = (Ssv.mu_upper s m).Ssv.value in
  check_bool "much smaller than sigma" true (ub < 10.0);
  check_bool "at least rho" true (ub >= 1.0 -. 1e-9)

let test_mu_homogeneous () =
  let m = cm_of_real [ [ 0.5; 0.2 ]; [ 0.1; 0.8 ] ] in
  let s = [ Ssv.Full (1, 1); Ssv.Full (1, 1) ] in
  let v1 = (Ssv.mu_upper s m).Ssv.value in
  let v3 =
    (Ssv.mu_upper s (Mat.scale 3.0 (fst m), Mat.scale 3.0 (snd m))).Ssv.value
  in
  check_bool "mu(3m) = 3 mu(m)" true (Float.abs (v3 -. (3.0 *. v1)) < 1e-6)

let test_mu_lower_below_upper () =
  let m =
    ( Mat.init 3 3 (fun i j -> Float.of_int ((i + j) mod 3) -. 0.7),
      Mat.init 3 3 (fun i j -> 0.3 *. Float.of_int (i - j)) )
  in
  let s = [ Ssv.Full (1, 1); Ssv.Full (2, 2) ] in
  let ub = (Ssv.mu_upper s m).Ssv.value in
  let lb = Ssv.mu_lower s m in
  check_bool "sandwich" true (lb <= ub +. 1e-9);
  check_bool "lower positive" true (lb > 0.0)

let test_mu_worst_case_delta_valid () =
  let m = cm_of_real [ [ 0.9; 0.4 ]; [ -0.3; 1.1 ] ] in
  let s = [ Ssv.Full (1, 1); Ssv.Full (1, 1) ] in
  let ((dre, dim) as delta), rho = Ssv.worst_case_delta s m in
  let modulus i j = Float.hypot (Mat.get dre i j) (Mat.get dim i j) in
  (* Delta must respect the structure: off-diagonal zero. *)
  check_float "structured 01" 0.0 (modulus 0 1);
  check_float "structured 10" 0.0 (modulus 1 0);
  (* And be a contraction. *)
  check_bool "unit norm" true (Svd.norm2_complex delta <= 1.0 +. 1e-6);
  check_bool "certificate consistent" true
    (rho <= (Ssv.mu_upper s m).Ssv.value +. 1e-6)

let test_mu_repeated_scalar () =
  (* For M = c*I with repeated scalar structure, mu = |c|. *)
  let m = (Mat.scalar 3 2.5, Mat.create 3 3) in
  let s = [ Ssv.Repeated 3 ] in
  let ub = (Ssv.mu_upper s m).Ssv.value in
  let lb = Ssv.mu_lower s m in
  check_float_loose "upper" 2.5 ub;
  check_bool "lower tight" true (lb >= 2.5 -. 1e-4)

let test_mu_validate () =
  let m = (Mat.identity 3, Mat.create 3 3) in
  Alcotest.check_raises "tiling"
    (Invalid_argument "Ssv: structure does not tile the matrix") (fun () ->
      ignore (Ssv.mu_upper [ Ssv.Full (2, 2) ] m))

let test_mu_sweep_runs () =
  let sys =
    Ss.make ~domain:(Ss.Discrete 0.5)
      ~a:(Mat.of_lists [ [ 0.6; 0.2 ]; [ -0.1; 0.5 ] ])
      ~b:(Mat.identity 2) ~c:(Mat.identity 2) ~d:(Mat.create 2 2) ()
  in
  let s = [ Ssv.Full (1, 1); Ssv.Full (1, 1) ] in
  let sweep = Ssv.sweep ~points:20 s sys in
  check_bool "peak positive" true (sweep.Ssv.peak > 0.0);
  check_int "grid size" 20 (Array.length sweep.Ssv.upper_bounds)

(* ------------------------------------------------------------------ *)
(* Dk                                                                  *)
(* ------------------------------------------------------------------ *)

let test_dk_runs_and_certifies () =
  let plant = hinf_test_plant () in
  let structure = [ Ssv.Full (1, 1); Ssv.Full (1, 1) ] in
  let r = Dk.synthesize ~iterations:3 ~mu_points:20 ~plant ~structure () in
  check_bool "mu finite" true (Float.is_finite r.Dk.mu_peak);
  check_bool "history recorded" true (List.length r.Dk.history >= 1);
  let cl = Hinf.close_loop plant r.Dk.controller in
  check_bool "stable" true (Ss.is_stable cl)

let test_dk_no_worse_than_hinf () =
  let plant = hinf_test_plant () in
  let structure = [ Ssv.Full (1, 1); Ssv.Full (1, 1) ] in
  let hinf_result = Hinf.synthesize plant in
  let cl = Hinf.close_loop plant hinf_result.Hinf.controller in
  let mu_hinf = (Ssv.sweep ~points:20 structure cl).Ssv.peak in
  let dk = Dk.synthesize ~iterations:3 ~mu_points:20 ~plant ~structure () in
  check_bool "dk <= hinf mu (within tolerance)" true
    (dk.Dk.mu_peak <= (mu_hinf *. 1.05) +. 1e-9)

let test_dk_scale_plant_roundtrip () =
  let plant = hinf_test_plant () in
  let structure = [ Ssv.Full (1, 1); Ssv.Full (1, 1) ] in
  let scaled = Dk.scale_plant plant structure [| 2.0; 1.0 |] in
  (* Scaling with the inverse recovers the original D matrix. *)
  let unscaled = Dk.scale_plant scaled structure [| 0.5; 1.0 |] in
  Alcotest.check mat "d restored" plant.Hinf.sys.Ss.d unscaled.Hinf.sys.Ss.d

(* ------------------------------------------------------------------ *)
(* Quantize                                                            *)
(* ------------------------------------------------------------------ *)

let freq_channel = Quantize.make ~minimum:0.2 ~maximum:2.0 ~step:0.1

let test_quantize_levels () =
  let l = Quantize.levels freq_channel in
  check_int "count" 19 (Array.length l);
  check_float "first" 0.2 l.(0);
  check_float "last" 2.0 l.(18)

let test_quantize_project () =
  check_float "round down" 0.5 (Quantize.project freq_channel 0.52);
  check_float "round up" 0.6 (Quantize.project freq_channel 0.56);
  check_float "clamp low" 0.2 (Quantize.project freq_channel (-1.0));
  check_float "clamp high" 2.0 (Quantize.project freq_channel 99.0)

let test_quantize_radius () =
  check_float "span" 1.8 (Quantize.span freq_channel);
  check_float_loose "relative" (0.05 /. 0.9)
    (Quantize.relative_uncertainty freq_channel)

let prop_quantize_idempotent =
  QCheck.Test.make ~name:"projection idempotent" ~count:200
    QCheck.(float_range (-5.0) 5.0)
    (fun x ->
      let p = Quantize.project freq_channel x in
      Float.abs (Quantize.project freq_channel p -. p) < 1e-12)

let prop_quantize_in_range =
  QCheck.Test.make ~name:"projection in range" ~count:200
    QCheck.(float_range (-100.0) 100.0)
    (fun x ->
      let p = Quantize.project freq_channel x in
      p >= 0.2 -. 1e-12 && p <= 2.0 +. 1e-12)

let prop_quantize_error_bounded =
  QCheck.Test.make ~name:"in-range error <= step/2" ~count:200
    QCheck.(float_range 0.2 2.0)
    (fun x ->
      Float.abs (Quantize.project freq_channel x -. x)
      <= (freq_channel.Quantize.step /. 2.0) +. 1e-12)

let prop_dare_stabilizing =
  let gen =
    QCheck.Gen.(
      pair
        (array_size (return 9) (float_range (-1.2) 1.2))
        (array_size (return 3) (float_range (-1.0) 1.0)))
  in
  QCheck.Test.make ~name:"dare gain stabilizes" ~count:30
    (QCheck.make gen)
    (fun (adata, bdata) ->
      let a = { Mat.rows = 3; cols = 3; data = adata } in
      let b = { Mat.rows = 3; cols = 1; data = bdata } in
      let q = Mat.identity 3 and r = m1x1 1.0 in
      match Dare.solve ~a ~b ~q ~r with
      | x ->
        let k = Dare.gain ~a ~b ~r x in
        Eig.spectral_radius (Mat.sub a (Mat.mul b k)) < 1.0 +. 1e-9
      | exception Dare.No_solution _ -> QCheck.assume_fail ())

(* ------------------------------------------------------------------ *)
(* Planar frequency-response kernel vs the boxed path                 *)
(* ------------------------------------------------------------------ *)

(* The boxed path is [Oracle.Freq_ref]. *)

(* A random stable system from a seed: A scaled into the unit disc
   (discrete, period 0.5) or shifted left of -0.2 (continuous), by
   Gershgorin on its infinity norm; B, C and D dense in [-1, 1] with
   about a fifth of B's and C's entries exactly zero (C's zeros exercise
   the skipped terms of C x). *)
let random_stable_system ~seed ~order:n ~inputs:nin ~outputs:nout ~discrete =
  let st = Random.State.make [| seed; n; nin; nout |] in
  let entry ~sparse _ _ =
    if sparse && Random.State.int st 5 = 0 then 0.0
    else Random.State.float st 2.0 -. 1.0
  in
  let m = Mat.init n n (entry ~sparse:false) in
  let scale = 1.0 /. Float.max 1e-9 (Mat.norm_inf m) in
  let a =
    if discrete then Mat.scale (0.9 *. scale) m
    else Mat.sub (Mat.scale scale m) (Mat.scalar n 1.2)
  in
  Ss.make
    ~domain:(if discrete then Ss.Discrete 0.5 else Ss.Continuous)
    ~a
    ~b:(Mat.init n nin (entry ~sparse:true))
    ~c:(Mat.init nout n (entry ~sparse:true))
    ~d:(Mat.init nout nin (entry ~sparse:false))
    ()

let system_arb ~max_order =
  let gen =
    QCheck.Gen.(
      map
        (fun (seed, n, (nin, nout), discrete) ->
          (seed, n, nin, nout, discrete))
        (quad (int_bound 1_000_000) (int_range 1 max_order)
           (pair (int_range 1 15) (int_range 1 16))
           bool))
  in
  QCheck.make
    ~print:(fun (seed, n, nin, nout, discrete) ->
      Printf.sprintf "seed %d, order %d, %d in, %d out, %s" seed n nin nout
        (if discrete then "discrete" else "continuous"))
    gen

let sys_of (seed, n, nin, nout, discrete) =
  random_stable_system ~seed ~order:n ~inputs:nin ~outputs:nout ~discrete

(* Frequencies spanning the grid of a system's walk, plus dc-adjacent
   and near-Nyquist points. *)
let probe_frequencies sys =
  match sys.Ss.domain with
  | Ss.Continuous -> [ 1e-4; 0.03; 0.7; 2.0; 45.0; 1e3 ]
  | Ss.Discrete p -> [ 1e-4; 0.03; 0.7; 2.0; (Float.pi /. p) *. 0.999 ]

let response_bits_match sys =
  List.for_all
    (fun w -> pair_same_bits (Ss.freq_response sys w) (Freq_ref.response sys w))
    (probe_frequencies sys)

let prop_planar_response_bits =
  QCheck.Test.make ~name:"planar response = boxed, bit for bit" ~count:40
    (system_arb ~max_order:40)
    (fun spec -> response_bits_match (sys_of spec))

let prop_planar_norm_bits =
  QCheck.Test.make ~name:"planar hinf norm = boxed walk, bit for bit" ~count:8
    (system_arb ~max_order:40)
    (fun spec ->
      let sys = sys_of spec in
      same_bits (Ss.hinf_norm sys) (Freq_ref.hinf_norm sys))

(* The bounded walk accepts exactly when the full walk's peak is within
   the bound, and then returns the same bits. *)
let prop_bounded_walk_decides_as_full =
  let arb =
    QCheck.pair (system_arb ~max_order:40) (QCheck.float_range 0.5 1.5)
  in
  QCheck.Test.make ~name:"bounded walk decides as the full walk" ~count:40 arb
    (fun (spec, ratio) ->
      let sys = sys_of spec in
      let peak = Ss.hinf_norm sys in
      List.for_all
        (fun bound ->
          match Ss.hinf_norm_within ~bound sys with
          | Some v -> v <= bound && peak <= bound && same_bits v peak
          | None -> not (peak <= bound))
        [ ratio *. peak; peak; Float.pred peak ])

(* The size of the synthesis closed loop the kernel was built for. *)
let test_planar_kernel_at_synthesis_size () =
  List.iter
    (fun discrete ->
      let sys =
        random_stable_system ~seed:19 ~order:40 ~inputs:15 ~outputs:16
          ~discrete
      in
      check_bool "G bits" true (response_bits_match sys);
      check_bool "norm bits" true
        (same_bits (Ss.hinf_norm sys) (Freq_ref.hinf_norm sys)))
    [ false; true ]

(* A discrete plant whose control feedthrough D22 is a huge rank-one
   matrix: the discretized controller's nonzero D makes I - Dk D22
   numerically singular, so closing the loop raises [Lu.Singular] for
   every gamma. That gamma is infeasible, and the collector counts and
   names the exception; disabled, nothing is counted. *)
let test_gamma_exception_counted () =
  let d22 = Mat.scale 1e20 (Mat.of_lists [ [ 1.0; 1.0 ]; [ 1.0; 1.0 ] ]) in
  let d =
    Mat.blocks
      [
        [ m1x1 0.0; Mat.of_lists [ [ 1.0; 0.0 ] ] ];
        [ Mat.of_lists [ [ 1.0 ]; [ 0.5 ] ]; d22 ];
      ]
  in
  let plant =
    {
      Hinf.sys =
        Ss.make ~domain:(Ss.Discrete 0.5) ~a:(m1x1 0.5)
          ~b:(Mat.of_lists [ [ 1.0; 1.0; 0.5 ] ])
          ~c:(Mat.of_lists [ [ 1.0 ]; [ 1.0 ]; [ 0.3 ] ])
          ~d ();
      part = { Hinf.nw = 1; nu = 2; nz = 1; ny = 2 };
    }
  in
  let ctr = Obs.Metrics.counter "hinf.gamma_exceptions" in
  let before = Obs.Metrics.count ctr in
  check_bool "disabled: infeasible" true (Hinf.synthesize_at plant 2.0 = None);
  check_int "disabled: not counted" before (Obs.Metrics.count ctr);
  Obs.Collector.enable ();
  let k, lines = Obs.Collector.capture (fun () -> Hinf.synthesize_at plant 2.0) in
  Obs.Collector.disable ();
  check_bool "infeasible" true (k = None);
  check_int "counted once" (before + 1) (Obs.Metrics.count ctr);
  match List.map Obs.Json.of_string lines with
  | [ line ] ->
    let field k =
      Option.bind (Obs.Json.member "fields" line) (Obs.Json.member k)
    in
    check_bool "debug event" true
      (Obs.Json.member "name" line = Some (Obs.Json.String "hinf.gamma_exception"));
    check_bool "names the exception" true
      (field "exception" = Some (Obs.Json.String "Linalg.Lu.Singular"));
    check_bool "names the stage" true
      (field "stage" = Some (Obs.Json.String "close_loop"))
  | _ -> Alcotest.failf "expected one debug line, got %d" (List.length lines)

let frequency_kernel_cases =
  [
    Alcotest.test_case "synthesis-size kernel bits" `Quick
      test_planar_kernel_at_synthesis_size;
    Alcotest.test_case "gamma exception counted" `Quick
      test_gamma_exception_counted;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_planar_response_bits;
        prop_planar_norm_bits;
        prop_bounded_walk_decides_as_full;
      ]

(* ------------------------------------------------------------------ *)
(* SSV bounds on (re, im) pairs vs the boxed reference                 *)
(* ------------------------------------------------------------------ *)

(* A block structure of one to three blocks, each Full (1-4 x 1-4) or
   Repeated (1-3), and a seed for the complex matrix it tiles. *)
let ssv_case_arb =
  let block =
    QCheck.Gen.(
      frequency
        [
          (3, map2 (fun p q -> Ssv.Full (p, q)) (int_range 1 4) (int_range 1 4));
          (1, map (fun n -> Ssv.Repeated n) (int_range 1 3));
        ])
  in
  let print (s, seed) =
    Printf.sprintf "seed %d, %s" seed
      (String.concat "; "
         (List.map
            (function
              | Ssv.Full (p, q) -> Printf.sprintf "Full (%d, %d)" p q
              | Ssv.Repeated n -> Printf.sprintf "Repeated %d" n)
            s))
  in
  QCheck.make ~print
    QCheck.Gen.(pair (list_size (int_range 1 3) block) (int_bound 1_000_000))

(* The complex matrix of a case: about a fifth of the entries exactly
   zero (the M Delta product skips them), a fifth purely real, a fifth
   purely imaginary, magnitudes over four decades. *)
let ssv_matrix (s, seed) =
  let st = Random.State.make [| seed |] in
  let rows = Ssv.block_rows s and cols = Ssv.block_cols s in
  let re = Mat.create rows cols and im = Mat.create rows cols in
  let draw () =
    (Random.State.float st 2.0 -. 1.0)
    *. (10.0 ** Float.of_int (Random.State.int st 4 - 2))
  in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      let kind = Random.State.int st 5 in
      if kind <> 0 && kind <> 2 then Mat.set re i j (draw ());
      if kind <> 0 && kind <> 1 then Mat.set im i j (draw ())
    done
  done;
  (re, im)

(* Each case runs as drawn and transposed (every Full (p, q) becomes
   Full (q, p)), so a non-square case covers rows >= cols and
   rows < cols. *)
let ssv_orientations (s, seed) =
  let re, im = ssv_matrix (s, seed) in
  [
    (s, (re, im));
    ( List.map (function Ssv.Full (p, q) -> Ssv.Full (q, p) | b -> b) s,
      (Mat.transpose re, Mat.transpose im) );
  ]

let prop_mu_upper_bits =
  QCheck.Test.make ~name:"mu_upper on pairs = boxed, bit for bit" ~count:200
    ssv_case_arb (fun case ->
      List.for_all
        (fun (s, m) ->
          let b = Ssv.mu_upper s m
          and r = Ssv_ref.mu_upper s (Cmat.of_pair m) in
          same_bits b.Ssv.value r.Ssv_ref.value
          && Array.for_all2 same_bits b.Ssv.scales r.Ssv_ref.scales)
        (ssv_orientations case))

let prop_mu_lower_bits =
  QCheck.Test.make ~name:"mu_lower on pairs = boxed, bit for bit" ~count:100
    ssv_case_arb (fun case ->
      List.for_all
        (fun (s, m) ->
          same_bits (Ssv.mu_lower s m) (Ssv_ref.mu_lower s (Cmat.of_pair m)))
        (ssv_orientations case))

let prop_worst_case_delta_bits =
  QCheck.Test.make ~name:"worst-case delta on pairs = boxed, bit for bit"
    ~count:100 ssv_case_arb (fun case ->
      List.for_all
        (fun (s, m) ->
          let delta, rho = Ssv.worst_case_delta s m
          and delta', rho' = Ssv_ref.worst_case_delta s (Cmat.of_pair m) in
          pair_same_bits delta delta' && same_bits rho rho')
        (ssv_orientations case))

(* An infinite entry in a diagonal block leaves the balancing scales
   finite, so the scaled entry's imaginary part is [0.0 *. inf = nan]
   on both paths: the pair code must keep [Complex.mul]'s zero terms. *)
let test_mu_upper_infinite_entry () =
  let s = [ Ssv.Full (1, 1); Ssv.Full (2, 1) ] in
  let m =
    ( Mat.of_lists [ [ infinity; 0.5 ]; [ 0.3; 1.0 ]; [ -0.2; 0.0 ] ],
      Mat.of_lists [ [ 0.25; 0.0 ]; [ -0.1; 0.4 ]; [ 0.0; 0.7 ] ] )
  in
  let b = Ssv.mu_upper s m and r = Ssv_ref.mu_upper s (Cmat.of_pair m) in
  check_bool "value bits" true (same_bits b.Ssv.value r.Ssv_ref.value);
  check_bool "scale bits" true
    (Array.for_all2 same_bits b.Ssv.scales r.Ssv_ref.scales)

(* Seed 339710's [Repeated 3] case, transposed: the lower bound's real
   embedding stalls Francis QR past two exceptional shifts, i.e. past 30
   iterations without deflation. *)
let test_worst_case_delta_stalled_francis () =
  let s, m = List.nth (ssv_orientations ([ Ssv.Repeated 3 ], 339710)) 1 in
  let delta, rho = Ssv.worst_case_delta s m in
  let delta', rho' = Ssv_ref.worst_case_delta s (Cmat.of_pair m) in
  check_bool "rho" true (same_bits rho 0x1.02d8ddc3e6dp+2);
  check_bool "= boxed, bit for bit" true
    (pair_same_bits delta delta' && same_bits rho rho')

let ssv_pair_cases =
  Alcotest.test_case "infinite entry" `Quick test_mu_upper_infinite_entry
  :: Alcotest.test_case "stalled francis" `Quick
       test_worst_case_delta_stalled_francis
  :: List.map QCheck_alcotest.to_alcotest
       [ prop_mu_upper_bits; prop_mu_lower_bits; prop_worst_case_delta_bits ]

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_quantize_idempotent;
      prop_quantize_in_range;
      prop_quantize_error_bounded;
      prop_dare_stabilizing;
    ]

(* ------------------------------------------------------------------ *)
(* Round 2: edge cases and failure injection                           *)
(* ------------------------------------------------------------------ *)

let test_ss_mixed_domain_rejected () =
  let cont = first_order (-1.0) 1.0 1.0 0.0 in
  let disc = first_order ~domain:(Ss.Discrete 1.0) 0.5 1.0 1.0 0.0 in
  Alcotest.check_raises "mixed domains"
    (Invalid_argument "Ss.lft_lower: mixed time domains") (fun () ->
      ignore (Ss.lft_lower cont disc))

let test_ss_static_is_domain_agnostic () =
  let disc = first_order ~domain:(Ss.Discrete 1.0) 0.5 1.0 1.0 0.0 in
  (* A zero-order (continuous) plant closes a loop around a controller of
     either domain: F_l(P, K) = 2 K for P = [[0, 2]; [1, 0]]. *)
  let p =
    Ss.make ~a:(Mat.create 0 0) ~b:(Mat.create 0 2) ~c:(Mat.create 2 0)
      ~d:(Mat.of_lists [ [ 0.0; 2.0 ]; [ 1.0; 0.0 ] ])
      ()
  in
  let s = Ss.lft_lower p disc in
  check_float_loose "gain propagates" 4.0 (Mat.get (Ss.dcgain s) 0 0)

let test_ss_bad_period () =
  Alcotest.check_raises "bad period"
    (Invalid_argument "Ss.make: period must be positive") (fun () ->
      ignore (first_order ~domain:(Ss.Discrete 0.0) 0.5 1.0 1.0 0.0))

let test_hinf_regularizes_rank_deficient_d12 () =
  (* z has no direct u feedthrough at all: D12 = 0 is rank deficient and
     must be regularized internally. *)
  let a = m1x1 (-1.0) in
  let b = Mat.of_lists [ [ 1.0; 1.0 ] ] in
  let c = Mat.of_lists [ [ 1.0 ]; [ 1.0 ] ] in
  let d = Mat.of_lists [ [ 0.0; 0.0 ]; [ 0.1; 0.0 ] ] in
  let plant =
    { Hinf.sys = Ss.make ~a ~b ~c ~d (); part = { Hinf.nw = 1; nu = 1; nz = 1; ny = 1 } }
  in
  let { Hinf.controller; achieved_norm; gamma } = Hinf.synthesize plant in
  check_bool "stable" true (Ss.is_stable (Hinf.close_loop plant controller));
  check_bool "norm ok" true (achieved_norm <= (gamma *. 1.05) +. 1e-9)

let test_dk_structure_mismatch_rejected () =
  let plant = hinf_test_plant () in
  Alcotest.check_raises "tiling"
    (Invalid_argument "Dk.scale_plant: structure does not tile the z/w channels")
    (fun () ->
      ignore (Dk.scale_plant plant [ Ssv.Full (1, 1) ] [| 1.0 |]))

let test_ssv_sweep_continuous () =
  let sys = first_order (-1.0) 1.0 1.0 0.0 in
  let sweep = Ssv.sweep ~points:15 [ Ssv.Full (1, 1) ] sys in
  (* For a SISO low-pass, mu = |G| peaks at dc with value ~1. *)
  check_bool "peak near 1" true (Float.abs (sweep.Ssv.peak -. 1.0) < 0.05)

let test_care_hamiltonian_lqr_equivalence () =
  (* solve_hamiltonian on the standard LQR Hamiltonian must agree with
     solve. *)
  let a = Mat.of_lists [ [ 0.3; 1.0 ]; [ 0.0; -0.5 ] ] in
  let b = Mat.of_lists [ [ 0.0 ]; [ 1.0 ] ] in
  let q = Mat.identity 2 and r = m1x1 1.0 in
  let x1 = Care.solve ~a ~b ~q ~r in
  let g = Mat.mul3 b (Lu.inv r) (Mat.transpose b) in
  let h =
    Mat.blocks [ [ a; Mat.neg g ]; [ Mat.neg q; Mat.neg (Mat.transpose a) ] ]
  in
  let x2 = Care.solve_hamiltonian h in
  Alcotest.check mat "same solution" x1 x2

let test_quantize_count_precision () =
  (* Floating-point steps must not drop the last level. *)
  let c = Quantize.make ~minimum:0.2 ~maximum:2.0 ~step:0.1 in
  let l = Quantize.levels c in
  check_int "19 levels" 19 (Array.length l);
  check_bool "all distinct" true
    (Array.length l = List.length (List.sort_uniq compare (Array.to_list l)))

let round2_cases =
  [
    Alcotest.test_case "ss mixed domain" `Quick test_ss_mixed_domain_rejected;
    Alcotest.test_case "ss static domain-agnostic" `Quick
      test_ss_static_is_domain_agnostic;
    Alcotest.test_case "ss bad period" `Quick test_ss_bad_period;
    Alcotest.test_case "hinf regularization" `Quick
      test_hinf_regularizes_rank_deficient_d12;
    Alcotest.test_case "dk structure mismatch" `Quick
      test_dk_structure_mismatch_rejected;
    Alcotest.test_case "ssv continuous sweep" `Quick test_ssv_sweep_continuous;
    Alcotest.test_case "care hamiltonian equivalence" `Quick
      test_care_hamiltonian_lqr_equivalence;
    Alcotest.test_case "quantize level count" `Quick
      test_quantize_count_precision;
  ]

let () =
  Alcotest.run "control"
    [
      ( "ss",
        [
          Alcotest.test_case "dims" `Quick test_ss_dims;
          Alcotest.test_case "dcgain" `Quick test_ss_dcgain;
          Alcotest.test_case "simulate" `Quick test_ss_simulate_step;
          Alcotest.test_case "freq response" `Quick test_ss_freq_response;
          Alcotest.test_case "hinf norm lowpass" `Quick
            test_ss_hinf_norm_lowpass;
          Alcotest.test_case "hinf norm unstable" `Quick
            test_ss_hinf_norm_unstable;
          Alcotest.test_case "lft identity" `Quick test_ss_lft_identity;
        ] );
      ( "discretize",
        [
          Alcotest.test_case "tustin roundtrip" `Quick test_tustin_roundtrip;
          Alcotest.test_case "tustin hinf" `Quick test_tustin_preserves_hinf;
          Alcotest.test_case "tustin stability" `Quick
            test_tustin_preserves_stability;
        ] );
      ( "care",
        [
          Alcotest.test_case "scalar" `Quick test_care_scalar;
          Alcotest.test_case "random residual" `Quick test_care_residual_random;
          Alcotest.test_case "no solution" `Quick test_care_no_solution;
        ] );
      ( "dare",
        [
          Alcotest.test_case "golden ratio" `Quick test_dare_scalar_golden;
          Alcotest.test_case "random residual" `Quick test_dare_residual_random;
          Alcotest.test_case "stabilizes" `Quick test_dare_stabilizes_unstable;
        ] );
      ( "lqg",
        [
          Alcotest.test_case "kalman dual" `Quick test_kalman_gain_dual;
        ] );
      ( "hinf",
        [
          Alcotest.test_case "continuous" `Quick test_hinf_continuous;
          Alcotest.test_case "gamma monotone" `Quick test_hinf_gamma_monotone;
          Alcotest.test_case "discrete" `Quick test_hinf_discrete;
          Alcotest.test_case "bad partition" `Quick test_hinf_bad_partition;
        ] );
      ( "ssv",
        [
          Alcotest.test_case "single full block" `Quick
            test_mu_single_full_block;
          Alcotest.test_case "diagonal scalars" `Quick test_mu_diagonal_scalars;
          Alcotest.test_case "scaling beats sigma" `Quick
            test_mu_scaling_beats_sigma;
          Alcotest.test_case "homogeneous" `Quick test_mu_homogeneous;
          Alcotest.test_case "lower below upper" `Quick
            test_mu_lower_below_upper;
          Alcotest.test_case "worst-case delta" `Quick
            test_mu_worst_case_delta_valid;
          Alcotest.test_case "repeated scalar" `Quick test_mu_repeated_scalar;
          Alcotest.test_case "validate" `Quick test_mu_validate;
          Alcotest.test_case "sweep" `Quick test_mu_sweep_runs;
        ] );
      ( "dk",
        [
          Alcotest.test_case "runs" `Quick test_dk_runs_and_certifies;
          Alcotest.test_case "no worse than hinf" `Quick
            test_dk_no_worse_than_hinf;
          Alcotest.test_case "scale roundtrip" `Quick
            test_dk_scale_plant_roundtrip;
        ] );
      ( "quantize",
        [
          Alcotest.test_case "levels" `Quick test_quantize_levels;
          Alcotest.test_case "project" `Quick test_quantize_project;
          Alcotest.test_case "radius" `Quick test_quantize_radius;
        ] );
      ("edge cases", round2_cases);
      ("properties", qcheck_cases);
      ("frequency kernel", frequency_kernel_cases);
      ("ssv pairs", ssv_pair_cases);
    ]
