(* Training-run data collection (Section IV-C).

   System identification needs records of the signals each controller
   would actuate and observe, taken while the training applications run
   and the inputs are excited across their allowed values. One board run
   per training application collects the records of both layers
   simultaneously: the hardware layer sees [its 4 inputs; the 3 placement
   signals] -> [perf, power_big, power_little, temp], and the software
   layer sees [the 3 placement signals; the 4 hardware inputs] ->
   [perf_little, perf_big, delta spare-compute]. *)

open Linalg

type records = {
  hw_u : Vec.t array;
  hw_y : Vec.t array;
  sw_u : Vec.t array;
  sw_y : Vec.t array;
}

let epoch = 0.5

(* Excitation levels per signal: the full allowed grids, held for a few
   epochs so the thermal and sensor dynamics are excited too. *)
let excitation_levels =
  [|
    [| 1.0; 2.0; 3.0; 4.0 |] (* big cores *);
    [| 1.0; 2.0; 3.0; 4.0 |] (* little cores *);
    [| 0.4; 0.8; 1.2; 1.6; 2.0 |] (* freq big *);
    [| 0.2; 0.6; 1.0; 1.4 |] (* freq little *);
    [| 0.0; 2.0; 4.0; 6.0; 8.0 |] (* threads big *);
    [| 1.0; 1.5; 2.0; 3.0; 4.0 |] (* tpc big *);
    [| 1.0; 1.5; 2.0; 3.0; 4.0 |] (* tpc little *);
  |]

let collect ?(epochs_per_workload = 220) () =
  let hw_u = ref [] and hw_y = ref [] and sw_u = ref [] and sw_y = ref [] in
  List.iteri
    (fun wi w ->
      let board = Board.Xu3.create [ w ] in
      let exc = { Sysid.Excitation.seed = 5 + (31 * wi); hold = 4 } in
      let seq =
        Sysid.Excitation.channels exc ~levels:excitation_levels
          ~length:epochs_per_workload
      in
      let i = ref 0 in
      while !i < epochs_per_workload && not (Board.Xu3.finished board) do
        let s = seq.(!i) in
        incr i;
        Board.Xu3.set_config board (Knobs.config_of_vec (Vec.slice s 0 4));
        Board.Xu3.set_placement board
          (Knobs.placement_of_vec (Vec.slice s 4 3));
        let o = Board.Xu3.run_epoch board epoch in
        (* Record what the hardware actually ran (the requested values
           after quantization and any emergency clamping) and what the
           sensors reported: identification must see the true
           input-output relation. *)
        let c = Board.Xu3.effective_config board in
        let p = Board.Xu3.placement board in
        let hw_in = Knobs.vec_of_config c in
        let sw_in = Knobs.vec_of_placement p in
        hw_u := Vec.concat hw_in sw_in :: !hw_u;
        hw_y := Hw_layer.measurements o :: !hw_y;
        sw_u := Vec.concat sw_in hw_in :: !sw_u;
        sw_y := Sw_layer.measurements o :: !sw_y
      done)
    Board.Workload.training;
  {
    hw_u = Array.of_list (List.rev !hw_u);
    hw_y = Array.of_list (List.rev !hw_y);
    sw_u = Array.of_list (List.rev !sw_u);
    sw_y = Array.of_list (List.rev !sw_y);
  }
