(* The scheme registry: every named layer composition (Table IV, the
   Section VI-B LQG arrangements, the three-layer demo) with the
   metadata every consumer prints, plus the layer/stack builders the
   bench harness reuses for sensitivity studies. *)

open Linalg
open Board

(* ------------------------------------------------------------------ *)
(* Layer builders                                                      *)
(* ------------------------------------------------------------------ *)

(* The hardware and software layer roles. The SSV controllers read the
   other layer's current inputs as external signals; the LQG baselines
   have none. Memoized designs share one Controller.t per process; every
   layer mounts a copy so concurrently running stacks never share the
   controller's state vector (see {!Controller.copy}). *)

let hw_layer ~externals controller =
  Layer.controlled ~label:"hw" ~cap_targets:Hw_layer.cap_targets
    ~controller:(Controller.copy controller)
    ~targets:(Layer.Optimized (Hw_layer.make_optimizer ()))
    ~measure:Hw_layer.measurements ~externals
    ~actuate:(fun board u ->
      Xu3.set_config board (Knobs.config_of_vec u))
    ()

let sw_layer ~externals controller =
  Layer.controlled ~label:"sw"
    ~controller:(Controller.copy controller)
    ~targets:(Layer.Optimized (Sw_layer.make_optimizer ()))
    ~measure:Sw_layer.measurements ~externals
    ~actuate:(fun board u ->
      Xu3.set_placement board (Knobs.placement_of_vec u))
    ()

let hw_ssv_layer (syn : Design.synthesis) =
  hw_layer syn.Design.controller ~externals:(fun board ->
      Knobs.vec_of_placement (Xu3.placement board))

let sw_ssv_layer (syn : Design.synthesis) =
  sw_layer syn.Design.controller ~externals:(fun board ->
      Knobs.vec_of_config (Xu3.config board))

let no_externals _board = [||]

let lqg_monolithic_layer controller =
  Layer.controlled ~label:"mono"
    ~controller:(Controller.copy controller)
    ~targets:(Layer.Optimized (Lqg_layer.monolithic_optimizer ()))
    ~measure:Lqg_layer.monolithic_measurements ~externals:no_externals
    ~actuate:(fun board u ->
      Xu3.set_config board (Knobs.config_of_vec (Vec.slice u 0 4));
      Xu3.set_placement board (Knobs.placement_of_vec (Vec.slice u 4 3)))
    ()

(* The Table IV OS scheduler as a layer of its own: schemes (a) and (c)
   run it above their hardware layer. *)
let os_coordinated_layer ?placement_wire () =
  Layer.heuristic ~label:"os"
    ~reset:(fun () ->
      match placement_wire with Some w -> Layer.Wire.reset w | None -> ())
    ~act:(fun board o ->
      let placement =
        Heuristics.os_coordinated ~config:(Xu3.config board) ~outputs:o
      in
      (match placement_wire with
      | Some w -> Layer.Wire.set w (Some placement)
      | None -> ());
      Xu3.set_placement board placement)
    ()

(* The demonstration third layer: a per-application QoS governor above
   the OS. Work per frame is proportional to the quality level; the
   measured frame rate is the board's throughput over that cost. A
   hand-built leaky-integral compensator (the constant-target SSV
   option of Section III-D) trades quality for the frame target,
   reading the hardware frequency — its only view of the layers
   below — as an external signal. *)
let qos_quality_default = 3.0

let qos_ginst_per_frame quality = 0.04 +. (0.05 *. quality)

let qos_target_fps = 30.0

let qos_layer () =
  let quality = ref qos_quality_default in
  let quality_knob =
    Signal.input ~name:"quality" ~minimum:1.0 ~maximum:5.0 ~step:0.5
      ~weight:1.0
  in
  let fps_output =
    Signal.output ~name:"fps" ~lo:0.0 ~hi:120.0 ~bound_fraction:0.1 ()
  in
  (* x(T+1) = 0.9 x + 0.25 dfps; u = x + 0.4 dfps + 0.05 freq: an
     integrating compensator with direct feedthrough. The loop gain is
     negative (higher quality costs more work per frame, so the frame
     rate falls), so a positive compensator gain closes a stable
     negative-feedback loop around the frame target. *)
  let core =
    Control.Ss.make ~domain:(Control.Ss.Discrete 0.5)
      ~a:(Mat.of_lists [ [ 0.9 ] ])
      ~b:(Mat.of_lists [ [ 0.25; 0.0 ] ])
      ~c:(Mat.of_lists [ [ 1.0 ] ])
      ~d:(Mat.of_lists [ [ 0.4; 0.05 ] ])
      ()
  in
  let controller =
    Controller.make ~controller:core ~inputs:[| quality_knob |]
      ~outputs:[| fps_output |] ~externals:[| Knobs.freq_big |]
  in
  Layer.controlled ~label:"qos"
    ~on_reset:(fun () -> quality := qos_quality_default)
    ~controller
    ~targets:(Layer.Fixed [| qos_target_fps |])
    ~measure:(fun o ->
      [| o.Xu3.bips /. qos_ginst_per_frame !quality |])
    ~externals:(fun board ->
      [| (Xu3.effective_config board).Xu3.freq_big |])
    ~actuate:(fun _board u -> quality := u.(0))
    ()

(* ------------------------------------------------------------------ *)
(* Stack builders                                                      *)
(* ------------------------------------------------------------------ *)

let coordinated_stack () =
  (* The hardware heuristic consumes the OS layer's un-clamped placement
     decision the same epoch; the board only stores the clamped one, so
     the layers share a wire. *)
  let wire = Layer.Wire.create None in
  let st = Heuristics.coordinated_init () in
  let hw =
    Layer.heuristic ~label:"hw"
      ~reset:(fun () -> st.Heuristics.tick <- 0)
      ~act:(fun board o ->
        let placement =
          match Layer.Wire.get wire with
          | Some p -> p
          | None -> Xu3.placement board
        in
        let config =
          Heuristics.hw_coordinated ~state:st
            ~config:(Xu3.effective_config board)
            ~outputs:o ~placement ()
        in
        Xu3.set_config board config)
      ()
  in
  Stack.make ~label:"coordinated"
    [ os_coordinated_layer ~placement_wire:wire (); hw ]

let decoupled_stack () =
  let st = Heuristics.decoupled_init () in
  let os =
    Layer.heuristic ~label:"os"
      ~act:(fun board o ->
        Xu3.set_placement board (Heuristics.os_round_robin ~outputs:o))
      ()
  in
  let hw =
    Layer.heuristic ~label:"hw"
      ~reset:(fun () -> Heuristics.decoupled_reset st)
      ~act:(fun board o ->
        Xu3.set_config board (Heuristics.hw_decoupled st ~outputs:o))
      ()
  in
  Stack.make ~label:"decoupled" [ os; hw ]

let hw_ssv_os_heuristic_stack syn =
  (* The OS heuristic of scheme (c) is the scheduler of the Coordinated
     heuristic (Table IV); the TMU-style core control lives in the
     hardware layer, which is the SSV controller here. *)
  Stack.make ~label:"hw-ssv"
    [ os_coordinated_layer (); hw_ssv_layer syn ]

let yukta_full_stack hw_syn sw_syn =
  (* Both layers sample the same observation; each reads the other's
     current inputs as external signals through the board. *)
  Stack.make ~label:"yukta" [ sw_ssv_layer sw_syn; hw_ssv_layer hw_syn ]

let lqg_decoupled_stack hw_ctrl sw_ctrl =
  Stack.make ~label:"lqg-dec"
    [
      sw_layer ~externals:no_externals sw_ctrl;
      hw_layer ~externals:no_externals hw_ctrl;
    ]

let lqg_monolithic_stack ctrl =
  Stack.make ~label:"lqg-mono" [ lqg_monolithic_layer ctrl ]

let three_layer_stack () =
  Stack.make ~label:"three-layer"
    [
      qos_layer ();
      sw_ssv_layer (Designs.sw ());
      hw_ssv_layer (Designs.hw ());
    ]

(* Coordination-value ablation: the same SSV controllers with their
   external-signal channels fed the constant center value (no
   information flows between layers). *)
let externals_centers externs =
  let centers =
    Array.map
      (fun (e : Signal.external_signal) ->
        (e.channel.minimum +. e.channel.maximum) /. 2.0)
      externs
  in
  fun _board -> centers

let yukta_no_externals_stack hw_syn sw_syn =
  Stack.make ~label:"yukta-no-externals"
    [
      Layer.with_externals (sw_ssv_layer sw_syn)
        (externals_centers (Knobs.config ()));
      Layer.with_externals (hw_ssv_layer hw_syn)
        (externals_centers (Knobs.placement ()));
    ]

(* Optimizer-value ablation: both controllers track their initial
   targets forever. *)
let yukta_fixed_targets_stack hw_syn sw_syn =
  Stack.make ~label:"yukta-fixed-targets"
    [
      Layer.with_fixed_targets (sw_ssv_layer sw_syn)
        (Optimizer.targets (Sw_layer.make_optimizer ()));
      Layer.with_fixed_targets (hw_ssv_layer hw_syn)
        (Optimizer.targets (Hw_layer.make_optimizer ()));
    ]

let fixed_targets_stack ~hw_design ~sw_design ~hw_targets ~sw_targets =
  Stack.make ~label:"fixed-targets"
    [
      Layer.with_fixed_targets (sw_ssv_layer sw_design) sw_targets;
      Layer.with_fixed_targets (hw_ssv_layer hw_design) hw_targets;
    ]

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

type info = {
  name : string;
  abbrev : string;
  key : string;
  aliases : string list;
  description : string;
  citation : string;
  layers : string list;
}

let table : (info * (unit -> Stack.t)) list =
  [
    ( {
        name = "Coordinated heuristic";
        abbrev = "CoordHeur";
        key = "coord";
        aliases = [ "coordinated" ];
        description =
          "HMP-style OS scheduler over a vendor hardware ladder with \
           worst-case margins (the evaluation baseline)";
        citation = "Table IV(a)";
        layers = [ "os"; "hw" ];
      },
      coordinated_stack );
    ( {
        name = "Decoupled heuristic";
        abbrev = "DecHeur";
        key = "decoupled";
        aliases = [ "dec" ];
        description =
          "Round-robin OS placement over a performance-governor hardware \
           layer; no coordination";
        citation = "Table IV(b)";
        layers = [ "os"; "hw" ];
      },
      decoupled_stack );
    ( {
        name = "Yukta: HW SSV+OS heuristic";
        abbrev = "HWssv+OSheur";
        key = "hw-ssv";
        aliases = [ "hwssv" ];
        description =
          "SSV hardware controller under the coordinated OS scheduler";
        citation = "Table IV(c)";
        layers = [ "os"; "hw" ];
      },
      fun () -> hw_ssv_os_heuristic_stack (Designs.hw ()) );
    ( {
        name = "Yukta: HW SSV+OS SSV";
        abbrev = "HWssv+OSssv";
        key = "yukta";
        aliases = [ "yukta-full"; "ssv" ];
        description =
          "The full Yukta design: coordinated SSV controllers in both \
           layers, external signals exchanged each epoch";
        citation = "Table IV(d)";
        layers = [ "sw"; "hw" ];
      },
      fun () -> yukta_full_stack (Designs.hw ()) (Designs.sw ()) );
    ( {
        name = "Decoupled HW LQG+OS LQG";
        abbrev = "DecLQG";
        key = "lqg-dec";
        aliases = [ "lqg-decoupled" ];
        description =
          "Independent per-layer LQG controllers; no external-signal \
           channels";
        citation = "Section VI-B";
        layers = [ "sw"; "hw" ];
      },
      fun () -> lqg_decoupled_stack (Designs.lqg_hw ()) (Designs.lqg_sw ()) );
    ( {
        name = "Monolithic LQG";
        abbrev = "MonoLQG";
        key = "lqg-mono";
        aliases = [ "lqg-monolithic" ];
        description = "One LQG controller over both layers' signals";
        citation = "Section VI-B";
        layers = [ "mono" ];
      },
      fun () -> lqg_monolithic_stack (Designs.lqg_monolithic ()) );
    ( {
        name = "QoS+Yukta (3 layers)";
        abbrev = "QoS+SSV^2";
        key = "three-layer";
        aliases = [ "3layer"; "qos" ];
        description =
          "A per-application QoS frame-rate governor above the full \
           two-layer Yukta stack: three coordinated layers";
        citation = "Section III-D";
        layers = [ "qos"; "sw"; "hw" ];
      },
      three_layer_stack );
  ]

let all = List.map fst table

let find key =
  let lower = String.lowercase_ascii key in
  let matches (i, _) =
    i.key = key
    || List.mem key i.aliases
    || String.lowercase_ascii i.key = lower
    || String.lowercase_ascii i.abbrev = lower
    || String.lowercase_ascii i.name = lower
  in
  match List.find_opt matches table with
  | Some (i, _) -> Some i
  | None -> None

let find_exn key =
  match find key with
  | Some i -> i
  | None ->
    invalid_arg
      (Printf.sprintf "Schemes.find_exn: unknown scheme %S (one of: %s)" key
         (String.concat ", " (List.map (fun i -> i.key) all)))

let stack info =
  match List.find_opt (fun (i, _) -> i.key = info.key) table with
  | Some (_, build) -> build ()
  | None ->
    invalid_arg
      (Printf.sprintf "Schemes.stack: %S is not a registered scheme"
         info.key)

let run ?max_time ?collect_trace ?injector info workloads =
  Stack.run ?max_time ?collect_trace ?injector (stack info) workloads
