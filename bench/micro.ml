(* Kernel micro-benchmarks: the hot-path primitives behind synthesis and
   simulation, timed in isolation so the perf trajectory has a stable,
   regression-friendly baseline (BENCH_micro.json).

     dune exec bench/main.exe -- micro                 -- full suite
     dune exec bench/main.exe -- micro --smoke         -- CI-sized run
     dune exec bench/main.exe -- micro --json OUT      -- also write OUT
     dune exec bench/main.exe -- micro gemm xu3        -- name filter

   Each kernel runs [warmup] throwaway invocations and then [reps] timed
   repetitions (a repetition may batch several invocations so that tiny
   kernels get above timer noise); the per-invocation median and p90 of
   the repetitions are printed and, under --json, written to the
   document. Schema in BENCHMARKS.md. *)

open Yukta

type spec = {
  kernel : string;      (* Stable name, the JSON/regression key. *)
  size : string;        (* Human-readable problem size, e.g. "16x16". *)
  batch : int;          (* Invocations per timed repetition. *)
  reps : int;           (* Timed repetitions (full run). *)
  smoke_reps : int;     (* Timed repetitions under --smoke. *)
  prepare : unit -> unit -> unit;
      (* [prepare () ] builds the kernel's inputs once (untimed) and
         returns the closure that is timed. *)
}

(* ------------------------------------------------------------------ *)
(* Kernel definitions                                                  *)
(* ------------------------------------------------------------------ *)

let gemm n =
  {
    kernel = Printf.sprintf "gemm%d" n;
    size = Printf.sprintf "%dx%d" n n;
    batch = max 1 (65536 / (n * n));
    reps = 30;
    smoke_reps = 15;
    prepare =
      (fun () ->
        let a = Linalg.Mat.random ~seed:1 n n in
        let b = Linalg.Mat.random ~seed:2 n n in
        let dst = Linalg.Mat.create n n in
        fun () -> Linalg.Mat.mul_into ~dst a b);
  }

let eig n =
  {
    kernel = Printf.sprintf "eig%d" n;
    size = Printf.sprintf "%dx%d" n n;
    batch = 8;
    reps = 30;
    smoke_reps = 15;
    prepare =
      (fun () ->
        let a = Linalg.Mat.random ~seed:5 n n in
        fun () -> ignore (Linalg.Eig.eigenvalues a));
  }

let svd m n =
  {
    kernel = Printf.sprintf "svd%dx%d" m n;
    size = Printf.sprintf "%dx%d" m n;
    batch = 8;
    reps = 30;
    smoke_reps = 15;
    prepare =
      (fun () ->
        let a = Linalg.Mat.random ~seed:6 m n in
        fun () -> ignore (Linalg.Svd.decompose a));
  }

let care n =
  {
    kernel = Printf.sprintf "care%d" n;
    size = Printf.sprintf "%dx%d" n n;
    batch = 4;
    reps = 30;
    smoke_reps = 15;
    prepare =
      (fun () ->
        let a = Linalg.Mat.random ~seed:32 n n in
        let b = Linalg.Mat.random ~seed:33 n 2 in
        let q =
          Linalg.Mat.add
            (Linalg.Mat.symmetrize (Linalg.Mat.random ~seed:34 n n))
            (Linalg.Mat.scalar n 5.0)
        in
        let r = Linalg.Mat.identity 2 in
        fun () -> ignore (Control.Care.solve ~a ~b ~q ~r));
  }

(* The closed-loop H-infinity norm check of the gamma bisection at the
   size the hardware design reaches: a seeded stable discrete system
   (period 0.5 s) with 40 states, 15 inputs and 16 outputs, A scaled into
   the unit disc. One invocation is the full 241-point grid walk. *)
let hinf_norm40 =
  {
    kernel = "hinf_norm40";
    size = "40-state, 16x15";
    batch = 1;
    reps = 10;
    smoke_reps = 5;
    prepare =
      (fun () ->
        let open Linalg in
        let m = Mat.random ~seed:40 40 40 in
        let sys =
          Control.Ss.make ~domain:(Control.Ss.Discrete 0.5)
            ~a:(Mat.scale (0.9 /. Mat.norm_inf m) m)
            ~b:(Mat.random ~seed:41 40 15)
            ~c:(Mat.random ~seed:42 16 40)
            ~d:(Mat.random ~seed:43 16 15)
            ()
        in
        fun () -> ignore (Control.Ss.hinf_norm sys));
  }

(* One full D-K synthesis on the mixed-sensitivity test plant (unstable
   x' = x + u + d with weighted z and noisy y): small, but it exercises
   the whole gamma-bisection + mu-sweep pipeline that dominates design
   wall time. *)
let dk_plant () =
  let open Linalg in
  let open Control in
  let a = Mat.of_lists [ [ 1.0 ] ] in
  let b = Mat.of_lists [ [ 1.0; 0.0; 1.0 ] ] in
  let c = Mat.of_lists [ [ 1.0 ]; [ 0.0 ]; [ 1.0 ] ] in
  let d =
    Mat.of_lists [ [ 0.0; 0.0; 0.0 ]; [ 0.0; 0.0; 0.3 ]; [ 0.0; 0.1; 0.0 ] ]
  in
  {
    Hinf.sys = Ss.make ~a ~b ~c ~d ();
    part = { Hinf.nw = 2; nu = 1; nz = 2; ny = 1 };
  }

let dk_design =
  {
    kernel = "dk_design";
    size = "1-state plant, 3 iters";
    batch = 1;
    reps = 10;
    smoke_reps = 5;
    prepare =
      (fun () ->
        let plant = dk_plant () in
        let structure = [ Control.Ssv.Full (1, 1); Control.Ssv.Full (1, 1) ] in
        fun () ->
          ignore
            (Control.Dk.synthesize ~iterations:3 ~mu_points:20 ~plant
               ~structure ()));
  }

(* The structured-singular-value upper bound of the Section VI-D cost
   figure: a random real 7x7 matrix under two full blocks (4x4 and 3x3),
   the D-scaling problem each frequency point of a D-step solves. *)
let mu_upper7 =
  {
    kernel = "mu_upper7";
    size = "7x7, blocks 4+3";
    batch = 8;
    reps = 30;
    smoke_reps = 15;
    prepare =
      (fun () ->
        let m = (Linalg.Mat.random ~seed:3 7 7, Linalg.Mat.create 7 7) in
        let structure = [ Control.Ssv.Full (4, 4); Control.Ssv.Full (3, 3) ] in
        fun () -> ignore (Control.Ssv.mu_upper structure m));
  }

(* 1000 board epochs (0.5 s each, 10 ms internal ticks = 50k ticks) on a
   workload scaled so it never finishes: the per-domain constant factor
   of every evaluation grid cell. *)
let xu3_epochs =
  {
    kernel = "xu3_1000epochs";
    size = "1000 x 0.5s epochs";
    batch = 1;
    reps = 10;
    smoke_reps = 5;
    prepare =
      (fun () ->
        fun () ->
          let w =
            Board.Workload.scale ~ginsts:1e6
              (Board.Workload.by_name "blackscholes")
          in
          let board = Board.Xu3.create [ w ] in
          for _ = 1 to 1000 do
            ignore (Board.Xu3.run_epoch board 0.5)
          done);
  }

(* A synthetic 6-state discrete controller with the hardware layer's
   signal dimensions, and one epoch's measurements, targets and
   externals for it. *)
let hw_shaped_controller () =
  let open Linalg in
  let n = 6 in
  let inputs = Hw_layer.inputs () in
  let outputs = Hw_layer.outputs () in
  let externals = Knobs.placement () in
  let n_meas = Array.length outputs + Array.length externals in
  let core =
    Control.Ss.make ~domain:(Control.Ss.Discrete 0.5)
      ~a:(Mat.scale 0.3 (Mat.random ~seed:11 n n))
      ~b:(Mat.random ~seed:12 n n_meas)
      ~c:(Mat.random ~seed:13 (Array.length inputs) n)
      ~d:(Mat.random ~seed:14 (Array.length inputs) n_meas)
      ()
  in
  Controller.make ~controller:core ~inputs ~outputs ~externals

let hw_measurements = [| 5.0; 2.5; 0.25; 65.0 |]
let hw_targets = [| 6.0; 3.0; 0.3; 77.0 |]
let hw_externals = [| 6.0; 1.5; 1.0 |]

(* One Yukta controller invocation (the Section VI-D cost figure). *)
let controller_step =
  {
    kernel = "controller_step";
    size = "6 states, 7 in, 4 out";
    batch = 20000;
    reps = 30;
    smoke_reps = 15;
    prepare =
      (fun () ->
        let ctrl = hw_shaped_controller () in
        fun () ->
          ignore
            (Controller.step ctrl ~measurements:hw_measurements
               ~targets:hw_targets ~externals:hw_externals));
  }

(* The collector.mli claim — "a disabled instrumentation site pays one
   branch" — as a measured pair instead of prose: one controlled
   [Layer.step] (the instrumented site wrapping [Controller.step]) with
   collection off vs on (null sink, so encoding is paid but IO is not).
   The controller, signals and inputs match the [controller_step]
   kernel; the board exists only to give the layer something to read. *)
let obs_layer () =
  let layer =
    Layer.controlled ~label:"bench-obs" ~controller:(hw_shaped_controller ())
      ~targets:(Layer.Fixed hw_targets)
      ~measure:(fun _ -> hw_measurements)
      ~externals:(fun _ -> hw_externals)
      ~actuate:(fun _ _ -> ())
      ()
  in
  let w =
    Board.Workload.scale ~ginsts:1e6 (Board.Workload.by_name "blackscholes")
  in
  let board = Board.Xu3.create [ w ] in
  let o = Board.Xu3.run_epoch board 0.5 in
  (layer, board, o)

let obs_overhead_off =
  {
    kernel = "obs_overhead_off";
    size = "layer step, collector off";
    batch = 20000;
    reps = 30;
    smoke_reps = 15;
    prepare =
      (fun () ->
        let layer, board, o = obs_layer () in
        Obs.Collector.disable ();
        fun () -> Layer.step layer board o);
  }

(* Enables the collector at prepare time; [main] disables it and
   restores the buffer sink after the whole run, and the pair sits last
   in [all_kernels] so the enabled flag cannot leak into another
   kernel's timing. *)
let obs_overhead_on =
  {
    kernel = "obs_overhead_on";
    size = "layer step, null sink";
    batch = 2000;
    reps = 30;
    smoke_reps = 15;
    prepare =
      (fun () ->
        let layer, board, o = obs_layer () in
        Obs.Collector.set_sink (fun _ -> ());
        Obs.Collector.enable ();
        fun () -> Layer.step layer board o);
  }

(* One fleet slice: 64 boards under the feedback rack policy, 16 s of
   simulated time (8 rack epochs), serial, on a workload scaled so no
   board finishes — the per-rack-epoch constant factor behind
   [bench fleet], board construction included. *)
let fleet_64boards =
  {
    kernel = "fleet_64boards";
    size = "64 boards x 16 s";
    batch = 1;
    reps = 10;
    smoke_reps = 5;
    prepare =
      (fun () ->
        let cfg =
          Fleet.Sim.config ~policy:Fleet.Rack.Feedback ~max_time:16.0
            ~ginsts:1e3 ~boards:64 ()
        in
        fun () -> ignore (Fleet.Sim.run cfg));
  }

let all_kernels =
  [
    gemm 4;
    gemm 8;
    gemm 16;
    gemm 32;
    gemm 64;
    eig 16;
    eig 32;
    svd 16 8;
    care 4;
    care 20;
    hinf_norm40;
    dk_design;
    mu_upper7;
    xu3_epochs;
    controller_step;
    fleet_64boards;
    obs_overhead_off;
    obs_overhead_on;
  ]

(* ------------------------------------------------------------------ *)
(* Harness                                                             *)
(* ------------------------------------------------------------------ *)

(* [q]-quantile of an ascending sample, interpolated linearly between
   the two nearest ranks; [nan] when empty. Also the serve bench's
   latency percentile. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else begin
    let rank = q *. Float.of_int (n - 1) in
    let lo = int_of_float rank in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. Float.of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

type measurement = {
  m_kernel : string;
  m_size : string;
  m_reps : int;
  m_batch : int;
  m_median_s : float;
  m_p90_s : float;
}

let run_spec ~smoke spec =
  let reps = if smoke then spec.smoke_reps else spec.reps in
  let warmup = max 1 (reps / 5) in
  let f = spec.prepare () in
  for _ = 1 to warmup * spec.batch do
    f ()
  done;
  let samples =
    Array.init reps (fun _ ->
        let t0 = Obs.Collector.now () in
        for _ = 1 to spec.batch do
          f ()
        done;
        (Obs.Collector.now () -. t0) /. Float.of_int spec.batch)
  in
  Array.sort Float.compare samples;
  {
    m_kernel = spec.kernel;
    m_size = spec.size;
    m_reps = reps;
    m_batch = spec.batch;
    m_median_s = percentile samples 0.5;
    m_p90_s = percentile samples 0.9;
  }

let json_of_measurement m =
  Obs.Json.Obj
    [
      ("kernel", Obs.Json.String m.m_kernel);
      ("size", Obs.Json.String m.m_size);
      ("reps", Obs.Json.Int m.m_reps);
      ("batch", Obs.Json.Int m.m_batch);
      ("median_s", Obs.Json.Float m.m_median_s);
      ("p90_s", Obs.Json.Float m.m_p90_s);
    ]

(* A duration in the unit that suits it, unpadded: each table (this
   one and [bench compare]'s) right-aligns it in its own column. *)
let pretty_time s =
  if s < 1e-6 then Printf.sprintf "%.1f ns" (s *. 1e9)
  else if s < 1e-3 then Printf.sprintf "%.2f us" (s *. 1e6)
  else if s < 1.0 then Printf.sprintf "%.2f ms" (s *. 1e3)
  else Printf.sprintf "%.3f s " s

let main args =
  let filters = ref [] in
  Cli.parse "bench micro"
    "usage: bench micro [--smoke] [--json OUT] [KERNEL...]\n\
    \       (KERNEL: run only kernels whose name contains it)"
    ~anon:(fun name -> filters := name :: !filters)
    [ Cli.smoke_spec " Fewer timed repetitions (the CI run)"; Cli.json_spec ]
    args;
  let selected =
    match !filters with
    | [] -> all_kernels
    | names ->
      let matches s =
        List.exists
          (fun n ->
            (* Substring match so "gemm" selects every gemm size. *)
            let ls = String.length s.kernel and ln = String.length n in
            let rec scan i =
              i + ln <= ls && (String.sub s.kernel i ln = n || scan (i + 1))
            in
            scan 0)
          names
      in
      List.filter matches all_kernels
  in
  if selected = [] then
    Cli.fail "no kernel matches %s" (String.concat ", " !filters);
  Printf.printf "%-18s %-22s %5s %12s %12s\n" "kernel" "size" "reps"
    "median" "p90";
  let results =
    List.map
      (fun spec ->
        let m = run_spec ~smoke:!Cli.smoke spec in
        Printf.printf "%-18s %-22s %5d %12s %12s\n%!" m.m_kernel m.m_size
          m.m_reps (pretty_time m.m_median_s) (pretty_time m.m_p90_s);
        m)
      selected
  in
  (* obs_overhead_on leaves the collector enabled on a null sink;
     restore the default disabled state whatever subset ran. *)
  Obs.Collector.disable ();
  Obs.Collector.buffer_sink ();
  Cli.write_json
    (Obs.Json.Obj
       [
         ("schema", Obs.Json.String "yukta.bench-micro/v1");
         ("smoke", Obs.Json.Bool !Cli.smoke);
         ("kernels", Obs.Json.List (List.map json_of_measurement results));
       ])
