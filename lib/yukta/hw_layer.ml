(* The hardware-layer controller specification of Table II. *)

open Linalg

(* The power/temperature limits used throughout the evaluation (Section
   V-A): just below the board's emergency trip thresholds. *)
let power_limit_big = 3.3

let power_limit_little = 0.33

let temp_limit = 79.0

let period = 0.5

(* Output ranges observed when characterizing the board with the training
   applications (Section IV-A): the deviation bounds are fractions of
   these ranges. *)
let perf_range = (0.0, 12.0)

let power_big_range = (0.0, 6.0)

let power_little_range = (0.0, 0.7)

let temp_range = (30.0, 95.0)

(* Deviation bound of the three critical outputs (Table II: +-10%). *)
let critical_bound = 0.10

let inputs ?(weight = 1.0) () = Knobs.inputs ~weight (Knobs.config ())

let outputs ?(perf_bound = 0.20) () =
  let lo_p, hi_p = perf_range in
  let lo_b, hi_b = power_big_range in
  let lo_l, hi_l = power_little_range in
  let lo_t, hi_t = temp_range in
  [|
    Signal.output ~name:"performance" ~lo:lo_p ~hi:hi_p
      ~bound_fraction:perf_bound ~integral:false ();
    Signal.output ~name:"power_big" ~lo:lo_b ~hi:hi_b
      ~bound_fraction:critical_bound ~critical:true ();
    Signal.output ~name:"power_little" ~lo:lo_l ~hi:hi_l
      ~bound_fraction:critical_bound ~critical:true ();
    Signal.output ~name:"temperature" ~lo:lo_t ~hi:hi_t
      ~bound_fraction:critical_bound ~critical:true ~integral:false ();
  |]

let spec ?(uncertainty = 0.40) ?(input_weight = 1.0) ?(perf_bound = 0.20) () =
  {
    Design.layer = "hardware";
    inputs = inputs ~weight:input_weight ();
    outputs = outputs ~perf_bound ();
    externals = Knobs.placement ();
    uncertainty;
    period;
  }

(* External rack caps: a board's uncapped budget is the sum of the two
   cluster power limits; a cap below it scales both power targets by the
   same fraction (temperature and performance targets are left to the
   controller). At or above the budget the rewrite is the identity —
   returning the argument itself keeps cap-less stacks bit-identical. *)
let board_power_budget = power_limit_big +. power_limit_little

let cap_targets ~cap (targets : Vec.t) =
  if cap >= board_power_budget then targets
  else begin
    let s = Float.max 0.05 (cap /. board_power_budget) in
    let t = Array.copy targets in
    t.(1) <- Float.min t.(1) (power_limit_big *. s);
    t.(2) <- Float.min t.(2) (power_limit_little *. s);
    t
  end

(* Optimizer roles (Section IV-D): maximize performance subject to the
   power and temperature caps. *)
let optimizer_roles =
  [|
    Optimizer.Maximize;
    Optimizer.Limited power_limit_big;
    Optimizer.Limited power_limit_little;
    Optimizer.Limited temp_limit;
  |]

let make_optimizer () = Optimizer.make ~outputs:(outputs ()) ~roles:optimizer_roles

(* Signal extraction from the board. *)

let measurements (o : Board.Xu3.outputs) =
  [| o.Board.Xu3.bips; o.power_big; o.power_little; o.temperature |]
