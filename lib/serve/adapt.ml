(* The per-session adaptation engine: recursive identification of the
   hardware layer over the live epoch stream, a prediction-error drift
   detector, and — on a trip — a D-K re-synthesis on a background
   domain whose controller is hot-swapped into the running layer with
   bumpless transfer.

   Everything runs in the same normalized coordinates as the offline
   design flow: u = [effective config; placement] and y = the layer
   measurements, recorded after the epoch exactly as [Training.collect]
   records them, normalized by the layer spec's signal ranges. With no
   plant drift the estimator is pure observation — the session's
   decisions are bit-identical to a frozen run. *)

open Board

(* A controller swap is a flight-recorder dump trigger: the window
   leading up to it shows the drift the detector saw. *)
let () = Obs.Recorder.register_trigger "adapt.swap"

let swaps_metric = Obs.Metrics.counter "adapt.swaps"

let drift_metric = Obs.Metrics.counter "adapt.drifts"

type event =
  | Drift_detected of { epoch : int; level : float; baseline : float }
  | Swapped of {
      epoch : int;
      latency_epochs : int;
      latency_s : float;
      mu_peak : float;
    }
  | Synthesis_failed of { epoch : int; message : string }

type status =
  | Idle
  | Relearning of int
      (* Epochs left before launching synthesis: the covariance was
         just re-inflated, and the estimate needs a window of
         post-drift samples or the new design would fit the old
         plant. *)
  | Synthesizing of Yukta.Design.synthesis Parallel.Task.t

type t = {
  layer : Yukta.Layer.t;
  spec : Yukta.Design.spec;
  est : Sysid.Recursive.t;
  detector : Sysid.Recursive.Drift.detector;
  mutable status : status;
  mutable swaps : int;
  mutable attempts : int; (* Synthesis attempts this drift episode. *)
  mutable drift_mark : (int * float) option; (* epoch, sim at detection *)
  mutable armed : bool; (* [pre_step] captured this epoch's input. *)
  mutable seen_trips : int; (* Board trip count at the last sample. *)
  (* Scratch for the normalized sample. *)
  u_norm : Linalg.Vec.t;
  y_norm : Linalg.Vec.t;
}

(* Identification order: the paper's na = nb = 4 (Section IV-C), the
   same order the offline [Design.identify] default fits. *)
let id_order = 4

(* Post-drift samples absorbed (under a re-inflated covariance) before
   re-synthesis launches. *)
let relearn_epochs = 20

(* A re-design is only installed when its certified SSV peak clears this
   gate; a worse certificate means the online model is still garbage
   (closed-loop data with no excitation), and flying the incumbent
   beats flying an uncertified design. The offline hw design sits near
   mu 5, so the gate admits a moderately degraded re-fit and rejects
   nonsense (including NaN, which fails the comparison). *)
let mu_gate = 25.0

(* Gated / failed syntheses re-enter the re-learning window this many
   times before the episode is abandoned and the detector re-armed. *)
let max_attempts = 3

(* The warm-start prior: the batch ARX fit over the offline training
   records, in normalized design coordinates — the same data the
   cached offline design was identified from, and the same memoized
   records. Shared per process. *)
let prior =
  lazy
    (let spec = Yukta.Hw_layer.spec () in
     let r = Yukta.Designs.get_records () in
     let u, y =
       Yukta.Design.normalize_records spec ~u:r.Yukta.Training.hw_u
         ~y:r.Yukta.Training.hw_y
     in
     Sysid.Arx.fit ~na:id_order ~nb:id_order ~u ~y)

let create ~layer () =
  if not (Yukta.Layer.is_controlled layer) then
    invalid_arg "Adapt.create: layer is not controlled";
  let spec = Yukta.Hw_layer.spec () in
  let nu =
    Array.length spec.Yukta.Design.inputs
    + Array.length spec.Yukta.Design.externals
  in
  let ny = Array.length spec.Yukta.Design.outputs in
  (* Forgetting is kept gentle: closed-loop data has almost no
     excitation, and aggressive forgetting inflates the covariance in
     the unexcited directions (classic windup) until the estimate
     disintegrates. Adaptation speed comes from the covariance reset at
     a drift trip, not from the steady-state forgetting rate. *)
  let est =
    Sysid.Recursive.create ~lambda:0.999 ~na:id_order ~nb:id_order ~ny ~nu ()
  in
  (* Start at the offline model with a unit-covariance prior: the
     session only ever sees closed-loop data, which cannot support a
     from-scratch fit but easily corrects a drifted gain. The dynamics
     block is pinned immediately (zero covariance) — only the input
     gains ever adapt. *)
  Sysid.Recursive.warm_start est (Lazy.force prior);
  Sysid.Recursive.reset_covariance ~delta:1.0 est;
  {
    layer;
    spec;
    est;
    detector = Sysid.Recursive.Drift.create ();
    status = Idle;
    swaps = 0;
    attempts = 0;
    drift_mark = None;
    armed = false;
    seen_trips = 0;
    u_norm = Linalg.Vec.create nu;
    y_norm = Linalg.Vec.create ny;
  }

(* The adaptable layer of a stack: the controlled layer labeled "hw"
   (the one whose spec this engine re-synthesizes against). *)
let for_stack stack =
  match
    List.find_opt
      (fun l -> Yukta.Layer.label l = "hw" && Yukta.Layer.is_controlled l)
      (Yukta.Stack.layers stack)
  with
  | Some layer -> Some (create ~layer ())
  | None -> None

let swaps t = t.swaps

(* u and y exactly as [Training.collect] pairs them: the configuration
   the hardware actually ran {e during} the epoch (post-quantization,
   post-emergency) against the measurements of that same epoch. The
   layers actuate after the plant advances, so by the time an epoch's
   outputs exist the board already carries the next epoch's commands —
   [pre_step] must capture the input before the epoch runs. *)
let pre_step t board =
  let c = Xu3.effective_config board in
  let p = Xu3.placement board in
  let u_phys =
    Linalg.Vec.concat (Yukta.Knobs.vec_of_config c)
      (Yukta.Knobs.vec_of_placement p)
  in
  let inputs = t.spec.Yukta.Design.inputs in
  let externals = t.spec.Yukta.Design.externals in
  let ni = Array.length inputs in
  for i = 0 to ni - 1 do
    t.u_norm.(i) <- Yukta.Signal.normalize_input inputs.(i) u_phys.(i)
  done;
  for j = 0 to Array.length externals - 1 do
    t.u_norm.(ni + j) <-
      Yukta.Signal.normalize_external externals.(j) u_phys.(ni + j)
  done;
  t.armed <- true

let sample_outputs t (o : Xu3.outputs) =
  let y_phys = Yukta.Hw_layer.measurements o in
  Array.iteri
    (fun i out -> t.y_norm.(i) <- Yukta.Signal.normalize_output out y_phys.(i))
    t.spec.Yukta.Design.outputs

(* The online re-design runs a cheaper D-K pass than the offline flow
   (one iteration, a coarser mu grid): the session needs a certified
   controller for the drifted plant in seconds, not the polished
   offline optimum — the guardband covers the remaining slack. *)
let synthesize_now t =
  let model =
    Yukta.Design.stabilize
      (Sysid.Arx.to_ss (Sysid.Recursive.model t.est)
         ~period:t.spec.Yukta.Design.period)
  in
  Yukta.Design.synthesize ~dk_iterations:1 ~mu_points:15 t.spec ~model

let observing () = Obs.Collector.observing ()

let emit_event ~name ~sim fields =
  if observing () then Obs.Collector.event ~name ~sim (fun () -> fields)

let observe t ~epoch board o =
  let sim = Xu3.time board in
  sample_outputs t o;
  (* An epoch in which a protection trip fired is a lie as a training
     pair: the actuation changed mid-epoch, so the captured input is
     not what produced the outputs. Such epochs (common exactly when a
     drift has the frozen controller trip-cycling) are skipped — fed
     to neither the estimator nor the detector — or the identified
     gains come out with the wrong sign and the re-design collapses to
     the actuation floor. *)
  let trips = Xu3.trip_count board in
  let clamped = trips > t.seen_trips in
  t.seen_trips <- trips;
  let err =
    if t.armed && not clamped then begin
      t.armed <- false;
      Sysid.Recursive.observe t.est ~u:t.u_norm ~y:t.y_norm
    end
    else begin
      t.armed <- false;
      None (* No honest capture for this epoch: skip the sample. *)
    end
  in
  let events = ref [] in
  (* Count down the re-learning window — only absorbed samples advance
     it — and launch the background design once the estimate has seen
     enough of the drifted plant. *)
  (match (t.status, err) with
  | Relearning n, Some _ ->
    t.status <-
      (if n > 1 then Relearning (n - 1)
       else Synthesizing (Parallel.Task.spawn (fun () -> synthesize_now t)))
  | _ -> ());
  (* A gated or failed synthesis re-enters the learning window (more
     post-drift data may rescue the model) until the episode's attempt
     budget runs out; then the incumbent keeps flying and the detector
     re-arms for a persisting drift. *)
  let synthesis_rejected t ~epoch ~sim ~message events =
    emit_event ~name:"adapt.failed" ~sim
      [
        ("layer", Obs.Json.String (Yukta.Layer.label t.layer));
        ("epoch", Obs.Json.Int epoch);
        ("message", Obs.Json.String message);
      ];
    events := Synthesis_failed { epoch; message } :: !events;
    if t.attempts < max_attempts then
      t.status <- Relearning relearn_epochs
    else begin
      t.attempts <- 0;
      t.drift_mark <- None;
      Sysid.Recursive.Drift.reset t.detector
    end
  in
  (* Collect a finished background synthesis first, so a swap lands the
     epoch the design completes. *)
  (match t.status with
  | Synthesizing task when Parallel.Task.finished task -> (
    t.status <- Idle;
    t.attempts <- t.attempts + 1;
    match Parallel.Task.await task with
    | syn when not (syn.Yukta.Design.mu_peak <= mu_gate) ->
      synthesis_rejected t ~epoch ~sim events
        ~message:
          (Printf.sprintf "design rejected: mu %.1f above gate %.1f"
             syn.Yukta.Design.mu_peak mu_gate)
    | syn ->
      t.attempts <- 0;
      Yukta.Layer.swap_controller t.layer
        (Yukta.Controller.copy syn.Yukta.Design.controller);
      t.swaps <- t.swaps + 1;
      let d_epoch, d_sim =
        match t.drift_mark with Some (e, s) -> (e, s) | None -> (epoch, sim)
      in
      let latency_epochs = epoch - d_epoch in
      let latency_s = sim -. d_sim in
      t.drift_mark <- None;
      (* The swapped-in design tracks the drifted plant: re-baseline the
         detector against the new closed loop. *)
      Sysid.Recursive.Drift.reset t.detector;
      Obs.Metrics.incr swaps_metric;
      emit_event ~name:"adapt.swap" ~sim
        [
          ("layer", Obs.Json.String (Yukta.Layer.label t.layer));
          ("epoch", Obs.Json.Int epoch);
          ("latency_epochs", Obs.Json.Int latency_epochs);
          ("latency_s", Obs.Json.Float latency_s);
          ("mu_peak", Obs.Json.Float syn.Yukta.Design.mu_peak);
        ];
      events :=
        Swapped
          {
            epoch;
            latency_epochs;
            latency_s;
            mu_peak = syn.Yukta.Design.mu_peak;
          }
        :: !events
    | exception exn ->
      synthesis_rejected t ~epoch ~sim events
        ~message:(Printexc.to_string exn))
  | _ -> ());
  (* Feed the detector; fire a re-synthesis when it trips. *)
  (match err with
  | None -> ()
  | Some e ->
    if Sysid.Recursive.Drift.observe t.detector e && t.status = Idle then begin
      let level = Sysid.Recursive.Drift.level t.detector in
      let baseline = Sysid.Recursive.Drift.baseline t.detector in
      t.drift_mark <- Some (epoch, sim);
      Obs.Metrics.incr drift_metric;
      emit_event ~name:"adapt.drift" ~sim
        [
          ("layer", Obs.Json.String (Yukta.Layer.label t.layer));
          ("epoch", Obs.Json.Int epoch);
          ("level", Obs.Json.Float level);
          ("baseline", Obs.Json.Float baseline);
        ];
      events := Drift_detected { epoch; level; baseline } :: !events;
      (* Let the estimate move toward the drifted plant, then re-design
         against what it learns. The reset is structured: only the
         input-gain block re-inflates, pinning the dynamics at the
         offline prior — an unstructured reset would spread the
         correction across the dynamics coefficients (closed-loop data
         is nearly rank one) and wreck the model's frequency response,
         and the re-design with it. *)
      Sysid.Recursive.reset_covariance ~delta:1e-2 t.est;
      t.attempts <- 0;
      t.status <- Relearning relearn_epochs
    end);
  List.rev !events

let finish t =
  match t.status with
  | Idle | Relearning _ -> t.status <- Idle
  | Synthesizing task ->
    (* Join the domain; a failed synthesis is already irrelevant. *)
    (try ignore (Parallel.Task.await task) with _ -> ());
    t.status <- Idle
