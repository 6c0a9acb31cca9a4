type cluster = Big | Little

let f_min _ = 0.2

let f_max = function Big -> 2.0 | Little -> 1.4

let f_step = 0.1

let levels c =
  let n = 1 + int_of_float (Float.round ((f_max c -. f_min c) /. f_step)) in
  Array.init n (fun i -> f_min c +. (Float.of_int i *. f_step))

let channel c =
  Control.Quantize.make ~minimum:(f_min c) ~maximum:(f_max c) ~step:f_step

let quantize c f = Control.Quantize.project (channel c) f

(* Near-flat V/F map of the low-power bins: the board operates in a
   leakage-dominated regime where supply voltage barely scales with
   frequency, so cluster power grows essentially linearly in f. This is
   what keeps the energy-delay optimum of compute-bound work at the power
   cap (as on the paper's board) rather than at mid frequency. *)
let voltage c f =
  match c with
  | Big -> 1.03 +. (0.01 *. f)
  | Little -> 1.02 +. (0.012 *. f)

let transition_cost_s = 0.0005

let hotplug_cost_s = 0.002

let core_count = 4
