(* The software/OS-layer controller specification of Table III. *)

open Linalg

let period = 0.5

let perf_little_range = (0.0, 3.0)

let perf_big_range = (0.0, 12.0)

let delta_sc_range = (-10.0, 10.0)

let inputs ?(weight = 2.0) () =
  [|
    Signal.input ~name:"threads_big" ~minimum:0.0 ~maximum:8.0 ~step:1.0
      ~weight;
    Signal.input ~name:"tpc_big" ~minimum:1.0 ~maximum:2.0 ~step:0.5 ~weight;
    Signal.input ~name:"tpc_little" ~minimum:1.0 ~maximum:2.0 ~step:0.5
      ~weight;
  |]

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

(* External signals: all four hardware-layer inputs (Table III). *)
let externals () =
  [|
    {
      Signal.name = "big_cores";
      info =
        Signal.From_input
          (Control.Quantize.make ~minimum:1.0 ~maximum:4.0 ~step:1.0);
    };
    {
      Signal.name = "little_cores";
      info =
        Signal.From_input
          (Control.Quantize.make ~minimum:1.0 ~maximum:4.0 ~step:1.0);
    };
    {
      Signal.name = "freq_big";
      info =
        Signal.From_input
          (Control.Quantize.make ~minimum:0.2 ~maximum:2.0 ~step:0.1);
    };
    {
      Signal.name = "freq_little";
      info =
        Signal.From_input
          (Control.Quantize.make ~minimum:0.2 ~maximum:1.4 ~step:0.1);
    };
  |]

let spec ?(uncertainty = 0.50) ?(input_weight = 2.0) ?(bound = 0.20) () =
  {
    Design.layer = "software";
    inputs = inputs ~weight:input_weight ();
    outputs = outputs ~bound ();
    externals = externals ();
    uncertainty;
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

let externals_of_config (c : Board.Xu3.config) =
  [|
    Float.of_int c.Board.Xu3.big_cores;
    Float.of_int c.little_cores;
    c.freq_big;
    c.freq_little;
  |]

let placement_of_command (u : Vec.t) =
  {
    Board.Xu3.threads_big = int_of_float (Float.round u.(0));
    tpc_big = u.(1);
    tpc_little = u.(2);
  }

let command_of_placement (p : Board.Xu3.placement) =
  [| Float.of_int p.Board.Xu3.threads_big; p.tpc_big; p.tpc_little |]
