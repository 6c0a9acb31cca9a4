(* Tests for the system-identification library: excitation design, ARX
   least squares, Box-Jenkins refinement, realization and validation. *)

open Linalg
open Sysid
open Oracle

let check_float = Alcotest.(check (float 1e-9))
let check_float_loose = Alcotest.(check (float 1e-5))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A known stable 2-output 2-input ARX system used as ground truth. *)
let true_a =
  [|
    Mat.of_lists [ [ 0.5; 0.1 ]; [ 0.0; 0.4 ] ];
    Mat.of_lists [ [ -0.1; 0.0 ]; [ 0.05; -0.2 ] ];
  |]

let true_b =
  [|
    Mat.of_lists [ [ 1.0; 0.0 ]; [ 0.2; 0.5 ] ];
    Mat.of_lists [ [ 0.3; -0.1 ]; [ 0.0; 0.4 ] ];
  |]

let true_model =
  { Arx.na = 2; nb = 2; ny = 2; nu = 2; a = true_a; b = true_b }

(* Schur stability of a model's free run, through its realization. *)
let stable m = Control.Ss.is_stable (Arx.to_ss m ~period:1.0)

let training_data ?(noise = 0.0) ?(length = 400) () =
  let exc = { Excitation.seed = 3; hold = 2 } in
  let u =
    Excitation.channels exc
      ~levels:[| [| -1.0; 0.0; 1.0 |]; [| -1.0; 1.0 |] |]
      ~length
  in
  let y0 = [| Vec.create 2; Vec.create 2 |] in
  let clean = Simulate.arx true_model ~u ~y0 in
  let st = Random.State.make [| 11 |] in
  let y =
    Array.map
      (fun v ->
        Vec.map (fun x -> x +. (noise *. (Random.State.float st 2.0 -. 1.0))) v)
      clean
  in
  (u, y)

(* ------------------------------------------------------------------ *)
(* Excitation                                                          *)
(* ------------------------------------------------------------------ *)

let test_excitation_levels () =
  let exc = { Excitation.seed = 5; hold = 3 } in
  let s = Excitation.multilevel exc ~levels:[| 1.0; 2.0; 3.0 |] ~length:100 in
  check_int "length" 100 (Vec.dim s);
  check_bool "values from levels" true
    (Array.for_all (fun x -> x = 1.0 || x = 2.0 || x = 3.0) s)

let test_excitation_hold () =
  let exc = { Excitation.seed = 5; hold = 4 } in
  let s = Excitation.multilevel exc ~levels:[| 0.0; 1.0 |] ~length:64 in
  (* Within each hold window the value must be constant. *)
  let ok = ref true in
  for i = 0 to 63 do
    if i mod 4 <> 0 && s.(i) <> s.(i - 1) then ok := false
  done;
  check_bool "held" true !ok

let test_excitation_deterministic () =
  let exc = { Excitation.seed = 9; hold = 2 } in
  let s1 = Excitation.multilevel exc ~levels:[| 0.0; 1.0 |] ~length:50 in
  let s2 = Excitation.multilevel exc ~levels:[| 0.0; 1.0 |] ~length:50 in
  check_bool "same seed same sequence" true (Approx.vec s1 s2)

let test_excitation_channels () =
  let exc = { Excitation.seed = 1; hold = 3 } in
  let cs =
    Excitation.channels exc ~levels:[| [| 0.0; 1.0 |]; [| 5.0; 6.0; 7.0 |] |]
      ~length:30
  in
  check_int "time-major" 30 (Array.length cs);
  check_int "two channels" 2 (Vec.dim cs.(0));
  check_bool "channel ranges" true
    (Array.for_all (fun v -> v.(0) <= 1.0 && v.(1) >= 5.0) cs)

(* ------------------------------------------------------------------ *)
(* Arx                                                                 *)
(* ------------------------------------------------------------------ *)

let test_arx_exact_recovery () =
  let u, y = training_data () in
  let m = Arx.fit ~na:2 ~nb:2 ~u ~y in
  (* Noise-free data: coefficients recovered to working precision. *)
  Array.iteri
    (fun i ai ->
      check_bool
        (Printf.sprintf "A%d recovered" (i + 1))
        true
        (Approx.mat ~tol:1e-4 ai m.Arx.a.(i)))
    true_a;
  Array.iteri
    (fun j bj ->
      check_bool
        (Printf.sprintf "B%d recovered" j)
        true
        (Approx.mat ~tol:1e-4 bj m.Arx.b.(j)))
    true_b

let test_arx_prediction_on_training () =
  let u, y = training_data () in
  let m = Arx.fit ~na:2 ~nb:2 ~u ~y in
  let fit = Validate.fit_percent ~actual:y ~predicted:(Arx.predict_one_step m ~u ~y) in
  check_bool "fit > 99.9%" true (Array.for_all (fun f -> f > 99.9) fit)

let test_arx_noisy_recovery () =
  let u, y = training_data ~noise:0.05 ~length:2000 () in
  let m = Arx.fit ~na:2 ~nb:2 ~u ~y in
  Array.iteri
    (fun i ai ->
      check_bool
        (Printf.sprintf "A%d close" (i + 1))
        true
        (Approx.mat ~tol:0.08 ai m.Arx.a.(i)))
    true_a

let test_arx_to_ss_equivalence () =
  let u, y = training_data ~length:120 () in
  let m = Arx.fit ~na:2 ~nb:2 ~u ~y in
  let ss = Arx.to_ss m ~period:0.5 in
  check_int "order" 4 (Control.Ss.order ss);
  (* Zero the first samples of u so that both the polynomial recursion
     (which pins its first max(na, nb-1) outputs to y0 = 0) and the
     state-space realization (which starts at rest) see identical
     histories. *)
  let u = Array.mapi (fun t v -> if t < 2 then Vec.create 2 else v) u in
  (* The realization must reproduce the polynomial model's free run. *)
  let y_poly = Simulate.arx m ~u ~y0:[| Vec.create 2; Vec.create 2 |] in
  let y_ss = Simulate.ss ss u in
  let err = ref 0.0 in
  for t = 2 to 119 do
    err := Float.max !err (Vec.norm_inf (Vec.sub y_poly.(t) y_ss.(t)))
  done;
  check_bool "trajectories match" true (!err < 1e-6)

let test_arx_feedthrough () =
  (* A static system y = 2u is an ARX model with na=0 and only B0. *)
  let u = Array.init 50 (fun i -> Vec.of_list [ Float.of_int (i mod 3) ]) in
  let y = Array.map (fun v -> Vec.scale 2.0 v) u in
  let m = Arx.fit ~na:0 ~nb:1 ~u ~y in
  check_float_loose "b0" 2.0 (Mat.get m.Arx.b.(0) 0 0)

let test_arx_stability_check () =
  check_bool "true model stable" true (stable true_model);
  let unstable =
    { true_model with Arx.a = [| Mat.scalar 2 1.2; Mat.create 2 2 |] }
  in
  check_bool "unstable detected" false (stable unstable)

let test_arx_too_short () =
  let u = Array.init 5 (fun _ -> Vec.create 2) in
  let y = Array.init 5 (fun _ -> Vec.create 2) in
  Alcotest.check_raises "short record"
    (Invalid_argument "Arx.fit: record too short for the order") (fun () ->
      ignore (Arx.fit ~na:2 ~nb:2 ~u ~y))

(* ------------------------------------------------------------------ *)
(* Boxjenkins                                                          *)
(* ------------------------------------------------------------------ *)

(* Equation-error noise (the structure GLS is consistent for):
   y(t) = A_1 y(t-1) + A_2 y(t-2) + B_0 u(t) + B_1 u(t-1) + v(t),
   with v(t) = rho v(t-1) + w(t) and white w (rho = 0 gives white
   equation error). *)
let equation_error_data ~rho () =
  let length = 3000 in
  let exc = { Excitation.seed = 3; hold = 2 } in
  let u =
    Excitation.channels exc
      ~levels:[| [| -1.0; 0.0; 1.0 |]; [| -1.0; 1.0 |] |]
      ~length
  in
  let st = Random.State.make [| 13 |] in
  let v = ref (Vec.create 2) in
  let y = Array.make length (Vec.create 2) in
  for t = 2 to length - 1 do
    v :=
      Vec.init 2 (fun c ->
          (rho *. !v.(c)) +. (0.1 *. (Random.State.float st 2.0 -. 1.0)));
    let add = Array.map2 ( +. ) in
    let clean =
      add
        (add
           (Linalg.Mat.mul_vec true_a.(0) y.(t - 1))
           (Linalg.Mat.mul_vec true_a.(1) y.(t - 2)))
        (add
           (Linalg.Mat.mul_vec true_b.(0) u.(t))
           (Linalg.Mat.mul_vec true_b.(1) u.(t - 1)))
    in
    y.(t) <- add clean !v
  done;
  (u, y)

let test_bj_detects_noise_color () =
  let u, y = equation_error_data ~rho:0.7 () in
  let bj = Boxjenkins.fit ~na:2 ~nb:2 ~u ~y in
  (* The AR(1) coefficient of the noise should be recovered approximately
     as the first coefficient of the AR(2) noise model. *)
  check_bool "noise coefficient near 0.7" true
    (Float.abs (bj.Boxjenkins.noise.(0) -. 0.7) < 0.25)

let test_bj_iterates () =
  let u, y = equation_error_data ~rho:0.7 () in
  let bj = Boxjenkins.fit ~na:2 ~nb:2 ~u ~y in
  check_bool "performed iterations" true (bj.Boxjenkins.iterations >= 1);
  check_bool "plant stable" true (stable bj.Boxjenkins.plant)

let test_bj_white_noise_near_zero () =
  let u, y = equation_error_data ~rho:0.0 () in
  let bj = Boxjenkins.fit ~na:2 ~nb:2 ~u ~y in
  check_bool "noise model small for white residuals" true
    (Vec.norm_inf bj.Boxjenkins.noise < 0.3)

let test_bj_residuals_shape () =
  let u, y = training_data ~length:100 () in
  let m = Arx.fit ~na:2 ~nb:2 ~u ~y in
  let res = Boxjenkins.residuals m ~u ~y in
  check_int "length" 100 (Array.length res);
  check_float "warmup zero" 0.0 (Vec.norm_inf res.(0));
  (* Noise-free: residuals vanish after warmup. *)
  check_bool "tiny residuals" true (Vec.norm_inf res.(50) < 1e-6)

(* ------------------------------------------------------------------ *)
(* Validate                                                            *)
(* ------------------------------------------------------------------ *)

let test_fit_percent_perfect () =
  let y = Array.init 20 (fun i -> Vec.of_list [ sin (Float.of_int i) ]) in
  let f = Validate.fit_percent ~actual:y ~predicted:y in
  check_float "perfect" 100.0 f.(0)

let test_fit_percent_mean_predictor () =
  (* Predicting the mean gives fit ~ 0. *)
  let y = Array.init 100 (fun i -> Vec.of_list [ sin (0.7 *. Float.of_int i) ]) in
  let mean =
    Array.fold_left (fun acc v -> acc +. v.(0)) 0.0 y /. 100.0
  in
  let pred = Array.map (fun _ -> Vec.of_list [ mean ]) y in
  let f = Validate.fit_percent ~actual:y ~predicted:pred in
  check_bool "near zero" true (Float.abs f.(0) < 1e-6)

let test_autocorrelation_sine () =
  let s = Vec.init 200 (fun i -> sin (0.3 *. Float.of_int i)) in
  (* A sine is strongly autocorrelated: at lags 1-10 its autocorrelation
     is about cos (0.3 k), inside the 95% band only near k = 5. *)
  check_bool "few lags inside the band" true (Validate.whiteness s <= 0.2)

let test_whiteness_of_noise () =
  let st = Random.State.make [| 21 |] in
  let s = Vec.init 1000 (fun _ -> Random.State.float st 2.0 -. 1.0) in
  check_bool "white" true (Validate.whiteness s >= 0.8);
  let sine = Vec.init 1000 (fun i -> sin (0.2 *. Float.of_int i)) in
  check_bool "sine not white" true (Validate.whiteness sine <= 0.5)

let test_channel_extraction () =
  let rec_ = [| Vec.of_list [ 1.0; 2.0 ]; Vec.of_list [ 3.0; 4.0 ] |] in
  let c1 = Validate.channel rec_ 1 in
  check_float "first" 2.0 c1.(0);
  check_float "second" 4.0 c1.(1)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_fit_percent_bounded_above =
  QCheck.Test.make ~name:"fit percent <= 100" ~count:50
    QCheck.(list_of_size (Gen.return 30) (float_range (-2.0) 2.0))
    (fun noise ->
      let y = Array.init 30 (fun i -> Vec.of_list [ cos (0.5 *. Float.of_int i) ]) in
      let noise = Array.of_list noise in
      let pred = Array.mapi (fun i v -> Vec.of_list [ v.(0) +. noise.(i) ]) y in
      let f = Validate.fit_percent ~actual:y ~predicted:pred in
      f.(0) <= 100.0 +. 1e-9)

let prop_arx_recovery_various_orders =
  QCheck.Test.make ~name:"arx one-step fit high on own data" ~count:10
    QCheck.(pair (int_range 1 3) (int_range 1 3))
    (fun (na, nb) ->
      let exc = { Excitation.seed = (na * 7) + nb; hold = 2 } in
      let u = Excitation.channels exc ~levels:[| [| -1.0; 1.0 |] |] ~length:300 in
      (* Random stable model of the given order. *)
      let st = Random.State.make [| na; nb |] in
      let a =
        Array.init na (fun _ ->
            Mat.of_lists [ [ 0.5 *. (Random.State.float st 1.0 -. 0.5) ] ])
      in
      let b =
        Array.init nb (fun _ ->
            Mat.of_lists [ [ Random.State.float st 2.0 -. 1.0 ] ])
      in
      let truth = { Arx.na; nb; ny = 1; nu = 1; a; b } in
      let y = Simulate.arx truth ~u ~y0:(Array.init (max na (nb - 1) + 1) (fun _ -> Vec.create 1)) in
      let m = Arx.fit ~na ~nb ~u ~y in
      let pred = Arx.predict_one_step m ~u ~y in
      let f = Validate.fit_percent ~actual:y ~predicted:pred in
      f.(0) > 99.0)

(* ------------------------------------------------------------------ *)
(* Recursive (RLS)                                                     *)
(* ------------------------------------------------------------------ *)

(* Feed a full record through the recursive estimator, batch-style. *)
let rls_feed est ~u ~y =
  Array.iteri (fun t ut -> ignore (Recursive.observe est ~u:ut ~y:y.(t))) u

let models_close ?(tol = 1e-6) (m1 : Arx.model) (m2 : Arx.model) =
  Array.for_all2 (Approx.mat ~tol) m1.Arx.a m2.Arx.a
  && Array.for_all2 (Approx.mat ~tol) m1.Arx.b m2.Arx.b

let test_rls_matches_batch () =
  let u, y = training_data ~noise:0.02 ~length:300 () in
  let batch = Arx.fit ~na:2 ~nb:2 ~u ~y in
  let est = Recursive.create ~na:2 ~nb:2 ~ny:2 ~nu:2 () in
  rls_feed est ~u ~y;
  check_bool "rls = batch ridge" true
    (models_close ~tol:1e-6 batch (Recursive.model est))

let test_rls_warmup () =
  let est = Recursive.create ~na:2 ~nb:3 ~ny:1 ~nu:1 () in
  let one = Vec.of_list [ 1.0 ] in
  check_bool "first sample no error" true
    (Recursive.observe est ~u:one ~y:one = None);
  check_bool "second sample no error" true
    (Recursive.observe est ~u:one ~y:one = None);
  check_bool "third sample updates" true
    (Recursive.observe est ~u:one ~y:one <> None)

let test_rls_error_shrinks () =
  (* On a deterministic plant the one-step error must collapse as the
     estimate converges. *)
  let u, y = training_data ~length:300 () in
  let est = Recursive.create ~na:2 ~nb:2 ~ny:2 ~nu:2 () in
  let errs = ref [] in
  Array.iteri
    (fun t ut ->
      match Recursive.observe est ~u:ut ~y:y.(t) with
      | Some e -> errs := e :: !errs
      | None -> ())
    u;
  let errs = Array.of_list (List.rev !errs) in
  let n = Array.length errs in
  let mean lo hi =
    let s = ref 0.0 in
    for i = lo to hi - 1 do s := !s +. errs.(i) done;
    !s /. float_of_int (hi - lo)
  in
  check_bool "late errors tiny" true (mean (n - 50) n < 1e-6);
  check_bool "late << early" true (mean (n - 50) n < 0.01 *. mean 0 50)

let test_drift_detector () =
  let module D = Recursive.Drift in
  let d = D.create () in
  let clean i = 0.1 +. (0.01 *. sin (float_of_int i)) in
  let drifted _ = 1.0 in
  (* Feeds [n] residuals; how many of them tripped the detector. *)
  let feed n residual =
    let trips = ref 0 in
    for i = 0 to n - 1 do
      if D.observe d (residual i) then incr trips
    done;
    !trips
  in
  let calibrated () = not (Float.is_nan (D.baseline d)) in
  (* Clean phase: residuals around 0.1 — the first 30 calibrate the
     baseline, and none trips. *)
  check_int "clean warm-up never trips" 0 (feed 29 clean);
  check_bool "no baseline during warm-up" false (calibrated ());
  check_int "clean never trips" 0 (feed 71 clean);
  check_bool "baseline near level" true (Float.abs (D.baseline d -. 0.1) < 0.02);
  (* Drift: residuals jump 10x — must trip exactly once, then latch. *)
  check_int "trips once" 1 (feed 100 drifted);
  check_int "latched" 0 (feed 100 drifted);
  (* Reset forgets the baseline: the detector calibrates and trips
     again. *)
  D.reset d;
  check_bool "reset forgets the baseline" false (calibrated ());
  check_int "clean after reset never trips" 0 (feed 100 clean);
  check_bool "recalibrated" true (calibrated ());
  check_int "trips again" 1 (feed 100 drifted)

let test_rls_reset_covariance () =
  let u, y = training_data ~length:200 () in
  let est = Recursive.create ~lambda:0.9 ~na:2 ~nb:2 ~ny:2 ~nu:2 () in
  rls_feed est ~u ~y;
  let before = Recursive.model est in
  Recursive.reset_covariance ~delta:1.0 est;
  (* Resetting covariance keeps the estimate itself. *)
  check_bool "estimate kept" true (models_close before (Recursive.model est))

let test_rls_warm_start () =
  let u, y = training_data ~noise:0.02 ~length:300 () in
  let batch = Arx.fit ~na:2 ~nb:2 ~u ~y in
  let est = Recursive.create ~na:2 ~nb:2 ~ny:2 ~nu:2 () in
  Recursive.warm_start est batch;
  (* The installed prior round-trips exactly through the packed layout. *)
  check_bool "prior installed" true
    (models_close ~tol:1e-12 batch (Recursive.model est));
  (* Shape mismatches are rejected. *)
  let other = Arx.fit ~na:3 ~nb:2 ~u ~y in
  check_bool "shape mismatch rejected" true
    (try
       Recursive.warm_start est other;
       false
     with Invalid_argument _ -> true)

let test_rls_structured_reset () =
  (* Warm-start from the true model, then feed data from a plant whose
     input gains drifted (B scaled 1.5x). With the input-only covariance
     reset the A coefficients must stay pinned at the prior through every
     subsequent update, while the B estimate tracks the drift. *)
  let drifted =
    {
      true_model with
      Arx.b = Array.map (Mat.scale 1.5) true_b;
    }
  in
  let exc = { Excitation.seed = 5; hold = 2 } in
  let u =
    Excitation.channels exc
      ~levels:[| [| -1.0; 0.0; 1.0 |]; [| -1.0; 1.0 |] |]
      ~length:300
  in
  let y0 = [| Vec.create 2; Vec.create 2 |] in
  let y = Simulate.arx drifted ~u ~y0 in
  let est = Recursive.create ~na:2 ~nb:2 ~ny:2 ~nu:2 () in
  Recursive.warm_start est true_model;
  Recursive.reset_covariance ~delta:1e-2 est;
  rls_feed est ~u ~y;
  let m = Recursive.model est in
  check_bool "A pinned at prior" true
    (Array.for_all2 (Approx.mat ~tol:1e-12) true_a m.Arx.a);
  check_bool "B tracked drift" true
    (Array.for_all2 (Approx.mat ~tol:1e-3) drifted.Arx.b m.Arx.b)

let recursive_cases =
  [
    Alcotest.test_case "matches batch fit" `Quick test_rls_matches_batch;
    Alcotest.test_case "warmup bookkeeping" `Quick test_rls_warmup;
    Alcotest.test_case "error shrinks" `Quick test_rls_error_shrinks;
    Alcotest.test_case "drift detector" `Quick test_drift_detector;
    Alcotest.test_case "reset covariance" `Quick test_rls_reset_covariance;
    Alcotest.test_case "warm start" `Quick test_rls_warm_start;
    Alcotest.test_case "structured reset" `Quick test_rls_structured_reset;
  ]

let prop_rls_converges_to_batch =
  (* The satellite property: forgetting 1.0 RLS equals the batch ridge
     fit over the same record, for random orders and dimensions —
     including records whose excitation is rank-deficient (constant
     input), where only the shared ridge prior keeps the problem
     well-posed. *)
  QCheck.Test.make ~name:"rls forgetting 1.0 equals batch fit" ~count:25
    QCheck.(
      quad (int_range 1 3) (int_range 1 3) (int_range 1 2) (int_bound 1))
    (fun (na, nb, ny, flat) ->
      let nu = 1 in
      let length = 120 in
      let u =
        if flat = 1 then
          (* Rank-deficient: a constant input excites one direction. *)
          Array.init length (fun _ -> Vec.of_list [ 0.7 ])
        else
          Excitation.channels
            { Excitation.seed = (na * 31) + (nb * 7) + ny; hold = 2 }
            ~levels:[| [| -1.0; 0.0; 1.0 |] |] ~length
      in
      let st = Random.State.make [| na; nb; ny; flat |] in
      let rand_mat r c lim =
        Mat.init r c (fun _ _ -> lim *. (Random.State.float st 2.0 -. 1.0))
      in
      let truth =
        {
          Arx.na;
          nb;
          ny;
          nu;
          a = Array.init na (fun _ -> rand_mat ny ny (0.3 /. float_of_int na));
          b = Array.init nb (fun _ -> rand_mat ny nu 1.0);
        }
      in
      let y0 =
        Array.init (max na (nb - 1) + 1) (fun _ -> Vec.create ny)
      in
      let clean = Simulate.arx truth ~u ~y0 in
      let y =
        Array.map
          (fun v ->
            Vec.map (fun x -> x +. (0.01 *. (Random.State.float st 2.0 -. 1.0))) v)
          clean
      in
      let batch = Arx.fit ~na ~nb ~u ~y in
      let est = Recursive.create ~na ~nb ~ny ~nu () in
      rls_feed est ~u ~y;
      models_close ~tol:1e-5 batch (Recursive.model est))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_fit_percent_bounded_above;
      prop_arx_recovery_various_orders;
      prop_rls_converges_to_batch;
    ]


(* ------------------------------------------------------------------ *)
(* Round 2: edge cases                                                 *)
(* ------------------------------------------------------------------ *)

let test_arx_weighted_identity_filter () =
  (* Prefiltering with [1] must reproduce the plain fit exactly. *)
  let u, y = training_data ~length:200 () in
  let plain = Arx.fit ~na:2 ~nb:2 ~u ~y in
  let filtered = Arx.fit_weighted ~na:2 ~nb:2 ~filter:[| 1.0 |] ~u ~y in
  Array.iteri
    (fun i ai ->
      check_bool
        (Printf.sprintf "A%d equal" i)
        true
        (Approx.mat ~tol:1e-9 ai filtered.Arx.a.(i)))
    plain.Arx.a

let test_arx_na_zero_static () =
  (* na = 0 with nb = 1 models a static map. *)
  let u = Array.init 60 (fun i -> Vec.of_list [ Float.of_int (i mod 4) ]) in
  (* Constant offset is not modelled: use zero-mean input to isolate gain. *)
  let u0 = Array.map (fun v -> Vec.of_list [ v.(0) -. 1.5 ]) u in
  let y0 = Array.map (fun v -> Vec.of_list [ 3.0 *. v.(0) ]) u0 in
  let m = Arx.fit ~na:0 ~nb:1 ~u:u0 ~y:y0 in
  check_bool "gain" true (Float.abs (Mat.get m.Arx.b.(0) 0 0 -. 3.0) < 1e-6)

let test_excitation_bad_args () =
  Alcotest.check_raises "no levels" (Invalid_argument "Excitation: no levels")
    (fun () ->
      ignore
        (Excitation.multilevel { Excitation.seed = 1; hold = 3 } ~levels:[||]
           ~length:10));
  Alcotest.check_raises "bad hold"
    (Invalid_argument "Excitation: hold must be positive") (fun () ->
      ignore
        (Excitation.multilevel { Excitation.seed = 1; hold = 0 }
           ~levels:[| 1.0 |] ~length:10))

let test_validate_mismatched_lengths () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Validate.fit_percent: length mismatch") (fun () ->
      ignore
        (Validate.fit_percent
           ~actual:[| Vec.of_list [ 1.0 ] |]
           ~predicted:[||]))

let test_bj_prefilter_shape () =
  (* The noise model is AR(2): two coefficients c1, c2. *)
  let u, y = equation_error_data ~rho:0.5 () in
  let bj = Boxjenkins.fit ~na:2 ~nb:2 ~u ~y in
  check_int "noise order" 2 (Vec.dim bj.Boxjenkins.noise)

let round2_cases =
  [
    Alcotest.test_case "weighted identity filter" `Quick
      test_arx_weighted_identity_filter;
    Alcotest.test_case "na=0 static" `Quick test_arx_na_zero_static;
    Alcotest.test_case "excitation bad args" `Quick test_excitation_bad_args;
    Alcotest.test_case "validate mismatch" `Quick
      test_validate_mismatched_lengths;
    Alcotest.test_case "bj prefilter shape" `Quick test_bj_prefilter_shape;
  ]

let () =
  Alcotest.run "sysid"
    [
      ( "excitation",
        [
          Alcotest.test_case "levels" `Quick test_excitation_levels;
          Alcotest.test_case "hold" `Quick test_excitation_hold;
          Alcotest.test_case "deterministic" `Quick
            test_excitation_deterministic;
          Alcotest.test_case "channels" `Quick test_excitation_channels;
        ] );
      ( "arx",
        [
          Alcotest.test_case "exact recovery" `Quick test_arx_exact_recovery;
          Alcotest.test_case "training prediction" `Quick
            test_arx_prediction_on_training;
          Alcotest.test_case "noisy recovery" `Quick test_arx_noisy_recovery;
          Alcotest.test_case "to_ss equivalence" `Quick
            test_arx_to_ss_equivalence;
          Alcotest.test_case "feedthrough" `Quick test_arx_feedthrough;
          Alcotest.test_case "stability" `Quick test_arx_stability_check;
          Alcotest.test_case "too short" `Quick test_arx_too_short;
        ] );
      ( "boxjenkins",
        [
          Alcotest.test_case "detects noise color" `Quick
            test_bj_detects_noise_color;
          Alcotest.test_case "iterates" `Quick test_bj_iterates;
          Alcotest.test_case "white noise" `Quick test_bj_white_noise_near_zero;
          Alcotest.test_case "residuals" `Quick test_bj_residuals_shape;
        ] );
      ( "validate",
        [
          Alcotest.test_case "perfect fit" `Quick test_fit_percent_perfect;
          Alcotest.test_case "mean predictor" `Quick
            test_fit_percent_mean_predictor;
          Alcotest.test_case "sine autocorrelation" `Quick
            test_autocorrelation_sine;
          Alcotest.test_case "whiteness" `Quick test_whiteness_of_noise;
          Alcotest.test_case "channel" `Quick test_channel_extraction;
        ] );
      ("edge cases", round2_cases);
      ("recursive", recursive_cases);
      ("properties", qcheck_cases);
    ]
