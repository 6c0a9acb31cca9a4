(* Scalability to several layers (Section III-D).

     dune exec examples/three_layers.exe

   The paper envisions each layer's controller talking only to its
   neighbours: an application-layer controller above the OS reads the
   hardware frequency as an external signal (which already embodies the
   layers below it) and actuates an application knob. Here a video
   pipeline adjusts its quality level (work per frame) to hold a frame
   target while the two-layer Yukta system underneath manages power,
   placement and thermals — three coordinated SSV controllers in total.

   The registry ships a ready-made version of this arrangement
   (`yukta_cli run -s three-layer`, built on Schemes.qos_layer); this
   example goes one step further and trains the application controller
   on the live system before wiring it in as a Layer. *)

open Yukta
open Board

(* Frames cost work proportional to the quality level; the frame rate is
   whatever the board's throughput sustains at that cost. *)
let ginst_per_frame quality = 0.04 +. (0.05 *. quality)

let fps ~bips ~quality = bips /. ginst_per_frame quality

let quality_knob =
  Signal.input ~name:"quality" ~minimum:1.0 ~maximum:5.0 ~step:0.5 ~weight:1.0

let fps_output =
  Signal.output ~name:"fps" ~lo:0.0 ~hi:120.0 ~bound_fraction:0.1 ()

let app_spec =
  {
    Design.layer = "application";
    inputs = [| quality_knob |];
    outputs = [| fps_output |];
    externals = [| Knobs.freq_big |];
    uncertainty = 0.45;  (* two layers of interference below us *)
    period = 0.5;
  }

let () =
  Printf.printf "loading the two lower-layer designs (cached)...\n%!";
  let hw = Designs.hw () and sw = Designs.sw () in
  let lower = Schemes.yukta_full_stack hw sw in

  (* --- Train the application layer on the live two-layer stack. --- *)
  Printf.printf "training the application layer on the running system...\n%!";
  let board = Xu3.create [ Workload.by_name "x264" ] in
  Stack.reset lower;
  let exc = { Sysid.Excitation.seed = 11; hold = 3 } in
  let quality_seq =
    Sysid.Excitation.multilevel exc
      ~levels:(Control.Quantize.levels quality_knob.Signal.channel)
      ~length:200
  in
  let u_rec = ref [] and y_rec = ref [] in
  Array.iter
    (fun q ->
      if not (Xu3.finished board) then begin
        let o = Xu3.run_epoch board 0.5 in
        Stack.step lower board o;
        let f = (Xu3.effective_config board).Xu3.freq_big in
        u_rec := [| q; f |] :: !u_rec;
        y_rec := [| fps ~bips:o.Xu3.bips ~quality:q |] :: !y_rec
      end)
    quality_seq;
  let u = Array.of_list (List.rev !u_rec) in
  let y = Array.of_list (List.rev !y_rec) in
  Printf.printf "  %d training epochs\n%!" (Array.length u);

  Printf.printf "mu-synthesis of the application controller...\n%!";
  let app = Design.design ~order:2 ~dk_iterations:2 app_spec ~u ~y in
  Printf.printf "  %d states, mu peak %.2f\n"
    (Controller.order app.Design.controller)
    app.Design.mu_peak;

  (* --- Wire the trained controller in as a third Layer and run the
     closed loop as one Stack. --- *)
  let target_fps = 30.0 in
  let quality = ref 3.0 in
  let app_layer =
    Layer.controlled ~label:"app"
      ~on_reset:(fun () -> quality := 3.0)
      ~controller:app.Design.controller
      ~targets:(Layer.Fixed [| target_fps |])
      ~measure:(fun o -> [| fps ~bips:o.Xu3.bips ~quality:!quality |])
      ~externals:(fun board -> [| (Xu3.effective_config board).Xu3.freq_big |])
      ~actuate:(fun _board u -> quality := u.(0))
      ()
  in
  let stack =
    Stack.make ~label:"three-layer" (Stack.layers lower @ [ app_layer ])
  in
  Printf.printf "\nrunning three layers (frame target %.0f fps):\n" target_fps;
  Printf.printf "%8s %8s %8s %8s %8s\n" "time(s)" "fps" "quality" "Pbig(W)"
    "freq";
  let board = Xu3.create [ Workload.by_name "x264" ] in
  Stack.reset stack;
  let epoch = ref 0 in
  while (not (Xu3.finished board)) && !epoch < 200 do
    incr epoch;
    let o = Xu3.run_epoch board 0.5 in
    Stack.step stack board o;
    if !epoch mod 12 = 0 then
      Printf.printf "%8.1f %8.1f %8.1f %8.2f %8.1f\n" (Xu3.time board)
        (fps ~bips:o.Xu3.bips ~quality:!quality)
        !quality o.Xu3.power_big
        (Xu3.effective_config board).Xu3.freq_big
  done;
  Printf.printf
    "\nThe application layer only ever talked to its neighbour (freq_big);\n\
     the hardware limits were enforced two layers down, unseen from here.\n"
