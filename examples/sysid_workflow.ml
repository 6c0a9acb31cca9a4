(* System identification workflow (Section IV-C).

     dune exec examples/sysid_workflow.exe

   Runs a training application on the simulated board while exciting the
   hardware and scheduling knobs, fits the 4th-order Box-Jenkins-style
   polynomial model of the hardware layer, and validates it: one-step
   FIT%, residual whiteness, and the realized state-space model's
   stability. *)

open Yukta

let () =
  Printf.printf "collecting training records (6 training applications)...\n%!";
  let records = Training.collect ~epochs_per_workload:120 () in
  let n = Array.length records.Training.hw_u in
  Printf.printf "  %d epochs recorded\n" n;

  let spec = Hw_layer.spec () in
  let u_norm, y_norm =
    Design.normalize_records spec ~u:records.Training.hw_u
      ~y:records.Training.hw_y
  in
  Printf.printf "fitting Box-Jenkins (ARX(4,4) + AR noise refinement)...\n%!";
  let bj = Sysid.Boxjenkins.fit ~na:4 ~nb:4 ~u:u_norm ~y:y_norm in
  Printf.printf "  GLS iterations: %d, noise AR coefficients: [%s]\n"
    bj.Sysid.Boxjenkins.iterations
    (String.concat "; "
       (Array.to_list
          (Array.map (Printf.sprintf "%.3f") bj.Sysid.Boxjenkins.noise)));

  let pred =
    Sysid.Arx.predict_one_step bj.Sysid.Boxjenkins.plant ~u:u_norm ~y:y_norm
  in
  let fit = Sysid.Validate.fit_percent ~actual:y_norm ~predicted:pred in
  let names = [| "performance"; "power_big"; "power_little"; "temperature" |] in
  Printf.printf "one-step prediction fit:\n";
  Array.iteri
    (fun i f -> Printf.printf "  %-14s %6.1f%%\n" names.(i) f)
    fit;

  Printf.printf "residual whiteness (fraction of autocorrelations in the\n";
  Printf.printf "95%% confidence band; 1.0 = white):\n";
  let residuals =
    Sysid.Boxjenkins.residuals bj.Sysid.Boxjenkins.plant ~u:u_norm ~y:y_norm
  in
  Array.iteri
    (fun i name ->
      let series = Sysid.Validate.channel residuals i in
      Printf.printf "  %-14s %6.2f\n" name (Sysid.Validate.whiteness series))
    names;

  let model =
    Sysid.Arx.to_ss bj.Sysid.Boxjenkins.plant ~period:Hw_layer.period
  in
  Printf.printf "state-space realization: order %d, stable = %b\n"
    (Control.Ss.order model)
    (Control.Ss.is_stable model);
  Printf.printf "dc gains (rows: outputs; columns: 4 inputs + 3 externals):\n";
  Format.printf "%a@." Linalg.Mat.pp (Control.Ss.dcgain model)
