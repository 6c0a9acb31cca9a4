(* The configuration and placement surfaces: one table and one vector
   encoding each. *)

let knob name ~minimum ~maximum ~step =
  { Signal.name; channel = Control.Quantize.make ~minimum ~maximum ~step }

let freq_big = knob "freq_big" ~minimum:0.2 ~maximum:2.0 ~step:0.1

let config () =
  [|
    knob "big_cores" ~minimum:1.0 ~maximum:4.0 ~step:1.0;
    knob "little_cores" ~minimum:1.0 ~maximum:4.0 ~step:1.0;
    freq_big;
    knob "freq_little" ~minimum:0.2 ~maximum:1.4 ~step:0.1;
  |]

let placement () =
  [|
    knob "threads_big" ~minimum:0.0 ~maximum:8.0 ~step:1.0;
    knob "tpc_big" ~minimum:1.0 ~maximum:2.0 ~step:0.5;
    knob "tpc_little" ~minimum:1.0 ~maximum:2.0 ~step:0.5;
  |]

let inputs ~weight table =
  Array.map
    (fun (e : Signal.external_signal) ->
      let { Control.Quantize.minimum; maximum; step } = e.channel in
      Signal.input ~name:e.name ~minimum ~maximum ~step ~weight)
    table

let vec_of_config (c : Board.Xu3.config) =
  [|
    Float.of_int c.Board.Xu3.big_cores;
    Float.of_int c.little_cores;
    c.freq_big;
    c.freq_little;
  |]

let config_of_vec (u : Linalg.Vec.t) =
  {
    Board.Xu3.big_cores = int_of_float (Float.round u.(0));
    little_cores = int_of_float (Float.round u.(1));
    freq_big = u.(2);
    freq_little = u.(3);
  }

let vec_of_placement (p : Board.Xu3.placement) =
  [| Float.of_int p.Board.Xu3.threads_big; p.tpc_big; p.tpc_little |]

let placement_of_vec (u : Linalg.Vec.t) =
  {
    Board.Xu3.threads_big = int_of_float (Float.round u.(0));
    tpc_big = u.(1);
    tpc_little = u.(2);
  }
