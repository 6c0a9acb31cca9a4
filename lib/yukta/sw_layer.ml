(* The software/OS-layer controller specification of Table III. *)

let period = 0.5

let perf_little_range = (0.0, 3.0)

let perf_big_range = (0.0, 12.0)

let delta_sc_range = (-10.0, 10.0)

let inputs () = Knobs.inputs ~weight:2.0 (Knobs.placement ())

let outputs ?(bound = 0.20) () =
  let lo_l, hi_l = perf_little_range in
  let lo_b, hi_b = perf_big_range in
  let lo_s, hi_s = delta_sc_range in
  [|
    Signal.output ~name:"performance_little" ~lo:lo_l ~hi:hi_l
      ~bound_fraction:bound ~integral:false ();
    Signal.output ~name:"performance_big" ~lo:lo_b ~hi:hi_b
      ~bound_fraction:bound ~integral:false ();
    Signal.output ~name:"delta_spare_compute" ~lo:lo_s ~hi:hi_s
      ~bound_fraction:bound ();
  |]

let spec ?(bound = 0.20) () =
  {
    Design.layer = "software";
    inputs = inputs ();
    outputs = outputs ~bound ();
    externals = Knobs.config ();
    uncertainty = 0.50;
    period;
  }

(* The software controller's only goal is to minimize E x D; it relies on
   the hardware controller for the caps. The per-cluster performance
   outputs are observed (their targets track the measurements), while the
   spare-compute difference is the placement knob: its target hill-climbs
   on the measured E x D, biased toward big-cluster slack (threads migrate
   to the big cluster when it can absorb them). *)
let optimizer_roles =
  [| Optimizer.Track; Optimizer.Track; Optimizer.Limited 1.0 |]

let make_optimizer () = Optimizer.make ~outputs:(outputs ()) ~roles:optimizer_roles

let measurements (o : Board.Xu3.outputs) =
  [|
    o.Board.Xu3.bips_little;
    o.bips_big;
    o.spare_big -. o.spare_little;
  |]
