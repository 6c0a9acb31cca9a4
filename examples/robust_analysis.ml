(* Robustness analysis of a synthesized design (Section II-C).

     dune exec examples/robust_analysis.exe

   Rebuilds the hardware layer's Delta-N generalized plant, closes it with
   the synthesized controller, and sweeps the structured singular value
   across frequency: mu <= 1 would certify the designer's full request
   (guardband, quantization, bounds); mu = m > 1 means the same guarantees
   hold with everything scaled by m (the min(s) scaling argument of the
   paper). Also exhibits a worst-case structured perturbation found by the
   lower-bound power iteration. *)

open Yukta
open Control

let () =
  Printf.printf "loading the hardware-layer design (cached)...\n%!";
  let syn = Designs.hw () in
  let spec = Hw_layer.spec () in
  let plant, structure = Design.generalized_plant spec ~model:syn.Design.model in
  let k = Controller.internal syn.Design.controller in
  let closed = Hinf.close_loop plant k in
  Printf.printf "closed loop: %d states, stable = %b\n"
    (Ss.order closed) (Ss.is_stable closed);
  let sweep = Ssv.sweep ~points:30 structure closed in
  Printf.printf "\n%12s %12s\n" "freq (rad/s)" "mu upper";
  Array.iteri
    (fun i w ->
      if i mod 3 = 0 then
        Printf.printf "%12.4f %12.4f\n" w sweep.Ssv.upper_bounds.(i))
    sweep.Ssv.frequencies;
  Printf.printf "\nmu peak (upper bound): %.3f at %.4f rad/s\n" sweep.Ssv.peak
    sweep.Ssv.peak_frequency;
  (* A concrete worst-case perturbation at the peak frequency: its
     rho(M Delta) is a lower bound on mu there, hence on the peak. *)
  let m = Ss.freq_response closed sweep.Ssv.peak_frequency in
  let delta, rho = Ssv.worst_case_delta structure m in
  Printf.printf "mu peak (lower bound): %.3f (worst-case Delta at the peak)\n"
    rho;
  if sweep.Ssv.peak <= 1.0 then
    Printf.printf
      "certified: the +-%.0f%% guardband, quantization and bounds all hold.\n"
      (100.0 *. spec.Design.uncertainty)
  else
    Printf.printf
      "certified with scaling %.2f: guardband and bounds hold scaled by %.2f\n\
       (e.g. the +-%.0f%% performance bound becomes +-%.0f%%).\n"
      sweep.Ssv.peak sweep.Ssv.peak
      (100.0 *. spec.Design.outputs.(0).Signal.bound_fraction)
      (100.0 *. spec.Design.outputs.(0).Signal.bound_fraction *. sweep.Ssv.peak);
  Printf.printf
    "\nworst-case structured perturbation at the peak: |Delta| = %.3f,\n\
     rho(M Delta) = %.3f (any rho >= 1 at unit |Delta| would break a\n\
     guarantee; the certified margin is the gap to 1).\n"
    (Linalg.Svd.norm2_complex delta)
    rho
