open Linalg
open Control

type spec = {
  layer : string;
  inputs : Signal.input array;
  outputs : Signal.output array;
  externals : Signal.external_signal array;
  uncertainty : float;
  period : float;
}

let validate_spec spec =
  if Array.length spec.inputs = 0 then
    invalid_arg "Design: a layer needs at least one input";
  if Array.length spec.outputs = 0 then
    invalid_arg "Design: a layer needs at least one output";
  if spec.uncertainty <= 0.0 then
    invalid_arg "Design: guardband must be positive";
  if spec.period <= 0.0 then invalid_arg "Design: period must be positive"

let normalize_records spec ~u ~y =
  let nu = Array.length spec.inputs and ne = Array.length spec.externals in
  let u_norm =
    Array.map
      (fun row ->
        if Vec.dim row <> nu + ne then
          invalid_arg "Design.normalize_records: u row dimension mismatch";
        Vec.init (nu + ne) (fun i ->
            if i < nu then Signal.normalize_input spec.inputs.(i) row.(i)
            else Signal.normalize_external spec.externals.(i - nu) row.(i)))
      u
  in
  let y_norm =
    Array.map
      (fun row ->
        if Vec.dim row <> Array.length spec.outputs then
          invalid_arg "Design.normalize_records: y row dimension mismatch";
        Array.mapi
          (fun i v -> Signal.normalize_output spec.outputs.(i) v)
          row)
      y
  in
  (u_norm, y_norm)

(* Shrink the state dynamics just inside the unit circle when the raw
   identification returns a marginally unstable fit: controller synthesis
   needs a stabilizable nominal model, and the guardband absorbs the
   (small) modelling lie. *)
let stabilize model =
  let rho = Eig.spectral_radius model.Ss.a in
  if rho < 0.995 then model
  else { model with Ss.a = Mat.scale (0.99 /. rho) model.Ss.a }

let identify ?(order = 4) spec ~u ~y =
  validate_spec spec;
  let t0 = if Obs.Collector.enabled () then Obs.Collector.now () else 0.0 in
  let u_norm, y_norm = normalize_records spec ~u ~y in
  let bj = Sysid.Boxjenkins.fit ~na:order ~nb:order ~u:u_norm ~y:y_norm in
  let model =
    stabilize (Sysid.Arx.to_ss bj.Sysid.Boxjenkins.plant ~period:spec.period)
  in
  if Obs.Collector.enabled () then
    Obs.Collector.record_span ~name:"design.identify"
      ~dur_s:(Obs.Collector.now () -. t0)
      [
        ("layer", Obs.Json.String spec.layer);
        ("order", Obs.Json.Int order);
        ("samples", Obs.Json.Int (Array.length u));
      ];
  model

(* Performance weight dynamics: each tracking-error channel is filtered by
   hf * (z - zero) / (z - pole): the high-frequency gain [hf] below 1
   accepts bound-sized transients (any loop has sensitivity ~1 at high
   frequency), while the dc gain hf*(1-zero)/(1-pole) = 6 demands
   near-offset-free tracking. Outputs marked non-integral get a static
   weight (zero = pole). *)
let weight_pole = 0.995

let weight_zero o = if o.Signal.integral then 0.93 else weight_pole

let weight_hf = 0.45

let generalized_plant ?(ignore_quantization = false) spec ~model =
  validate_spec spec;
  let nu = Array.length spec.inputs in
  let ne = Array.length spec.externals in
  let no = Array.length spec.outputs in
  if Ss.inputs model <> nu + ne then
    invalid_arg "Design.generalized_plant: model inputs <> inputs + externals";
  if Ss.outputs model <> no then
    invalid_arg "Design.generalized_plant: model outputs mismatch";
  let n = Ss.order model in
  let bu = Mat.sub_matrix model.Ss.b 0 0 n nu in
  let be = Mat.sub_matrix model.Ss.b 0 nu n ne in
  let c = model.Ss.c in
  let du = Mat.sub_matrix model.Ss.d 0 0 no nu in
  let de = Mat.sub_matrix model.Ss.d 0 nu no ne in
  let dg = spec.uncertainty in
  let dq =
    if ignore_quantization then
      (* The LQG-style assumption of Section VI-B: inputs are continuous
         and unbounded, so no Delta_in energy is budgeted. A tiny epsilon
         keeps D12 full rank. *)
      Mat.scalar (Array.length spec.inputs) 1e-4
    else Mat.diag (Array.map Signal.quantization_uncertainty spec.inputs)
  in
  let w_e =
    Mat.diag
      (Array.map
         (fun o -> weight_hf /. Signal.normalized_bound o)
         spec.outputs)
  in
  (* The designer's input weights are expressed in "paper units" (1 for
     the hardware layer, 2 for the software layer); one paper unit maps to
     0.4 in the normalized loop, the scale at which weight 1 gives the
     modest-speed no-oscillation response of Figure 17. *)
  let w_u =
    Mat.diag (Array.map (fun i -> 0.4 *. i.Signal.weight) spec.inputs)
  in
  let zer r cl = Mat.create r cl in
  let ine = Mat.identity ne and ino = Mat.identity no in
  (* The error in physical (normalized) coordinates, as a function of the
     exogenous channels and u: err = C x + [I Du -I De] w + Du u. *)
  let err_d = Mat.blocks [ [ ino; du; Mat.neg ino; de; du ] ] in
  (* Augmented state: [x; x_w] with one weight state per output,
     x_w' = pole * x_w + err. *)
  let a_aug =
    Mat.blocks
      [ [ model.Ss.a; zer n no ]; [ c; Mat.scalar no weight_pole ] ]
  in
  (* Inputs of P: [w_unc(no); w_q(nu); r(no); e(ne); u(nu)]. *)
  let b_aug =
    Mat.vcat (Mat.blocks [ [ zer n no; bu; zer n no; be; bu ] ]) err_d
  in
  (* z_e = W_e (diag(pole - zero_i) x_w + err). *)
  let wdiff =
    Mat.diag
      (Array.map (fun o -> weight_pole -. weight_zero o) spec.outputs)
  in
  (* Outputs of P: [z_unc(no); z_q(nu); z_e(no); z_u(nu); err(no); e(ne)]. *)
  let cmat =
    Mat.blocks
      [
        [ Mat.scale dg c; zer no no ];
        [ zer nu n; zer nu no ];
        [ Mat.mul w_e c; Mat.mul w_e wdiff ];
        [ zer nu n; zer nu no ];
        [ c; zer no no ];
        [ zer ne n; zer ne no ];
      ]
  in
  let d =
    Mat.blocks
      [
        (* z_unc *)
        [ zer no no; Mat.scale dg du; zer no no; Mat.scale dg de; Mat.scale dg du ];
        (* z_q *)
        [ zer nu no; zer nu nu; zer nu no; zer nu ne; dq ];
        (* z_e *)
        [ w_e; Mat.mul w_e du; Mat.neg w_e; Mat.mul w_e de; Mat.mul w_e du ];
        (* z_u *)
        [ zer nu no; zer nu nu; zer nu no; zer nu ne; w_u ];
        (* err = y_tot - r *)
        [ ino; du; Mat.neg ino; de; du ];
        (* e measurement *)
        [ zer ne no; zer ne nu; zer ne no; ine; zer ne nu ];
      ]
  in
  let sys = Ss.make ~domain:model.Ss.domain ~a:a_aug ~b:b_aug ~c:cmat ~d () in
  let part =
    {
      Hinf.nw = no + nu + no + ne;
      nu;
      nz = no + nu + no + nu;
      ny = no + ne;
    }
  in
  let structure =
    [
      Ssv.Full (no, no);            (* Delta_model: the guardband. *)
      Ssv.Full (nu, nu);            (* Delta_in: quantization. *)
      Ssv.Full (no + nu, no + ne);  (* Delta_perf: main-loop block. *)
    ]
  in
  ({ Hinf.sys; part }, structure)

type synthesis = {
  controller : Controller.t;
  mu_peak : float;
  gamma : float;
  guaranteed_bounds : float array;
  model : Control.Ss.t;
}

let synthesize ?(dk_iterations = 3) ?(mu_points = 30) ?ignore_quantization
    spec ~model =
  let t0 = if Obs.Collector.enabled () then Obs.Collector.now () else 0.0 in
  let plant, structure = generalized_plant ?ignore_quantization spec ~model in
  let result = Dk.synthesize ~iterations:dk_iterations ~mu_points ~plant ~structure () in
  let scale = Float.max 1.0 result.Dk.mu_peak in
  let guaranteed_bounds =
    Array.map (fun o -> scale *. Signal.bound_absolute o) spec.outputs
  in
  if Obs.Collector.enabled () then
    Obs.Collector.record_span ~name:"design.synthesize"
      ~dur_s:(Obs.Collector.now () -. t0)
      [
        ("layer", Obs.Json.String spec.layer);
        ("mu_peak", Obs.Json.Float result.Dk.mu_peak);
        ("gamma", Obs.Json.Float result.Dk.gamma);
        ("controller_order", Obs.Json.Int (Ss.order result.Dk.controller));
      ];
  {
    controller =
      Controller.make ~controller:result.Dk.controller ~inputs:spec.inputs
        ~outputs:spec.outputs ~externals:spec.externals;
    mu_peak = result.Dk.mu_peak;
    gamma = result.Dk.gamma;
    guaranteed_bounds;
    model;
  }

let design ?order ?dk_iterations spec ~u ~y =
  let model = identify ?order spec ~u ~y in
  synthesize ?dk_iterations spec ~model
