open Linalg

(* The per-step buffers ([x]/[x_next] double buffer, [dy], [last_raw],
   [sx]/[sy] scratch, [out]) are all preallocated at [make]/[copy] time so
   a steady-state [step] allocates nothing. They are private to one [t];
   [copy] gives every buffer a fresh allocation (domain safety).

   [step] reads each signal's center and half-span from the float arrays
   filled at [make] (with [Signal]'s own functions, so the values are
   bit for bit those the per-signal calls would return): a per-step call
   into [Signal] from this module would box its float result. *)
type t = {
  core : Control.Ss.t;
  inputs : Signal.input array;
  outputs : Signal.output array;
  externals : Signal.external_signal array;
  channels : Control.Quantize.channel array;  (* The inputs' grids. *)
  input_center : float array;
  input_half_span : float array;
  output_half_span : float array;
  external_center : float array;
  external_half_span : float array;
  mutable x : Vec.t;
  mutable x_next : Vec.t;
  dy : Vec.t;
  last_raw : Vec.t;
  sx : Vec.t;
  sy : Vec.t;
  out : Vec.t;
  (* One-step output hold installed by [bumpless_from]: the next [step]
     advances state normally but emits exactly these (raw, quantized)
     commands, making the first post-swap actuation equal the last
     pre-swap one by construction. *)
  mutable hold : (Vec.t * Vec.t) option;
}

let make ~controller ~inputs ~outputs ~externals =
  let n_meas = Array.length outputs + Array.length externals in
  if Control.Ss.inputs controller <> n_meas then
    invalid_arg "Controller.make: controller inputs <> outputs + externals";
  if Control.Ss.outputs controller <> Array.length inputs then
    invalid_arg "Controller.make: controller outputs <> layer inputs";
  (match controller.Control.Ss.domain with
  | Control.Ss.Discrete _ -> ()
  | Control.Ss.Continuous ->
    invalid_arg "Controller.make: runtime controller must be discrete");
  let n = Control.Ss.order controller in
  let ni = Array.length inputs in
  let channels = Array.map (fun (i : Signal.input) -> i.Signal.channel) inputs in
  let ext_channels =
    Array.map (fun (e : Signal.external_signal) -> e.Signal.channel) externals
  in
  {
    core = controller;
    inputs;
    outputs;
    externals;
    channels;
    input_center = Array.map Signal.center channels;
    input_half_span = Array.map Signal.half_span channels;
    output_half_span = Array.map Signal.half_span_output outputs;
    external_center = Array.map Signal.center ext_channels;
    external_half_span = Array.map Signal.half_span ext_channels;
    x = Vec.create n;
    x_next = Vec.create n;
    dy = Vec.create n_meas;
    last_raw = Vec.create ni;
    sx = Vec.create n;
    sy = Vec.create ni;
    out = Vec.create ni;
    hold = None;
  }

let reset t =
  Array.fill t.x 0 (Vec.dim t.x) 0.0;
  t.hold <- None

(* A private state copy over the shared (immutable) core, signal specs
   and normalization arrays. Memoized designs hand out one [t] per
   process; every stack must copy it so concurrently running stacks
   never share [x] or any of the step buffers. *)
let copy t =
  let n = Control.Ss.order t.core in
  let ni = Array.length t.inputs in
  {
    t with
    x = Vec.create n;
    x_next = Vec.create n;
    dy = Vec.create (Vec.dim t.dy);
    last_raw = Vec.create ni;
    sx = Vec.create n;
    sy = Vec.create ni;
    out = Vec.create ni;
    hold = None;
  }

let step t ~measurements ~targets ~externals =
  if Vec.dim measurements <> Array.length t.outputs then
    invalid_arg "Controller.step: measurement dimension mismatch";
  if Vec.dim targets <> Array.length t.outputs then
    invalid_arg "Controller.step: target dimension mismatch";
  if Vec.dim externals <> Array.length t.externals then
    invalid_arg "Controller.step: external dimension mismatch";
  (* dy = [normalized output deviations; normalized externals]. *)
  let no = Array.length t.outputs in
  for i = 0 to no - 1 do
    t.dy.(i) <- (measurements.(i) -. targets.(i)) /. t.output_half_span.(i)
  done;
  for i = 0 to Array.length t.externals - 1 do
    t.dy.(no + i) <-
      (externals.(i) -. t.external_center.(i)) /. t.external_half_span.(i)
  done;
  Control.Ss.step_into t.core ~x:t.x ~u:t.dy ~x_next:t.x_next ~y:t.last_raw
    ~sx:t.sx ~sy:t.sy;
  let xt = t.x in
  t.x <- t.x_next;
  t.x_next <- xt;
  (* Denormalize the raw commands into [out], then project them onto
     their grids in place. *)
  for i = 0 to Array.length t.inputs - 1 do
    t.out.(i) <- t.input_center.(i) +. (t.last_raw.(i) *. t.input_half_span.(i))
  done;
  Control.Quantize.project_array t.channels t.out;
  (match t.hold with
  | Some (raw, out) ->
    Array.blit raw 0 t.last_raw 0 (Vec.dim t.last_raw);
    Array.blit out 0 t.out 0 (Vec.dim t.out);
    t.hold <- None
  | None -> ());
  t.out

(* Bumpless transfer (hand-off between two controllers mid-run): align
   the incoming controller's state so its raw command at the hand-off
   operating point reproduces the outgoing controller's last raw
   command — solve C x = u_raw_old - D dy_old in (ridge-regularized)
   least squares; the regularizer keeps the solve well-posed when C is
   wide (more states than commands, the usual case) and picks the
   near-minimum-norm alignment. The residual quantization-level bump is
   removed exactly by a one-step output hold of the outgoing
   controller's last commands, so the first post-swap actuation equals
   the last pre-swap actuation by construction while the new state
   advances under the real dynamics from step one. *)
let bumpless_from t ~from =
  if Array.length t.inputs <> Array.length from.inputs then
    invalid_arg "Controller.bumpless_from: command dimension mismatch";
  if Vec.dim t.dy <> Vec.dim from.dy then
    invalid_arg "Controller.bumpless_from: measurement dimension mismatch";
  let ni = Array.length t.inputs in
  let n = Control.Ss.order t.core in
  let dd = Mat.mul_vec t.core.Control.Ss.d from.dy in
  let rhs = Vec.create (ni + n) in
  for i = 0 to ni - 1 do
    rhs.(i) <- from.last_raw.(i) -. dd.(i)
  done;
  let aug = Mat.vcat t.core.Control.Ss.c (Mat.scalar n (Float.sqrt 1e-6)) in
  let x0 = Qr.solve_least_squares aug rhs in
  Array.blit x0 0 t.x 0 n;
  Array.blit from.dy 0 t.dy 0 (Vec.dim t.dy);
  t.hold <- Some (Vec.copy from.last_raw, Vec.copy from.out)

let last_raw_command t = Vec.copy t.last_raw

(* Health-path accessors: read the step buffers in place (valid until
   the next [step]), so feeding a monitor allocates nothing. *)

let last_tracking_error t =
  let no = Array.length t.outputs in
  if no = 0 then 0.0
  else begin
    let acc = ref 0.0 in
    for i = 0 to no - 1 do
      acc := !acc +. (t.dy.(i) *. t.dy.(i))
    done;
    Float.sqrt (!acc /. Float.of_int no)
  end

let saturation_eps = 1e-9

let last_saturated t =
  let sat = ref false in
  for i = 0 to Vec.dim t.last_raw - 1 do
    if Float.abs t.last_raw.(i) >= 1.0 -. saturation_eps then sat := true
  done;
  !sat

let order t = Control.Ss.order t.core

type cost = {
  states : int;
  inputs : int;
  outputs_and_externals : int;
  multiply_accumulates : int;
  storage_bytes : int;
}

(* Equations 3-4 need (N + I) x (N + O + E) multiply-accumulates for the
   combined [A B; C D] map, and the same number of 32-bit coefficients
   plus the state vector. *)
let cost t =
  let n = Control.Ss.order t.core in
  let i = Array.length t.inputs in
  let oe = Array.length t.outputs + Array.length t.externals in
  let mac = (n + i) * (n + oe) in
  {
    states = n;
    inputs = i;
    outputs_and_externals = oe;
    multiply_accumulates = mac;
    storage_bytes = 4 * (mac + n);
  }

let internal t = t.core
