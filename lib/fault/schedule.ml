(* Seeded deterministic fault-schedule generation. The same (seed,
   profile) pair always yields the identical schedule, so campaigns are
   regenerable experiments: every scheme replays the same disturbance
   sequence, and the robustness figure is reproducible byte for byte. *)

type profile = {
  label : string;
  horizon : float;
  count : int;
  severity : float;
}

let default_guardband = 0.40

let make_profile label ~severity ~horizon ~count =
  if not (Float.is_finite horizon && horizon > 0.0) then
    invalid_arg "Fault.Schedule: horizon must be finite and positive";
  if count < 1 then invalid_arg "Fault.Schedule: count must be at least 1";
  { label; horizon; count; severity }

let in_guardband ?(horizon = 120.0) ?(count = 6) () =
  make_profile "in-guardband" ~severity:0.75 ~horizon ~count

let out_of_guardband ?(horizon = 120.0) ?(count = 6) () =
  make_profile "out-of-guardband" ~severity:2.5 ~horizon ~count

(* Uniform draw in [lo, hi) from the schedule's private RNG. *)
let range st lo hi = lo +. Random.State.float st (hi -. lo)

let channel_of_int = function
  | 0 -> Spec.Perf
  | 1 -> Spec.Power_big
  | 2 -> Spec.Power_little
  | _ -> Spec.Temperature

(* Stuck-at values per channel: plausible low readings that make a
   controller believe it has headroom it does not have. *)
let stuck_value = function
  | Spec.Perf -> 2.0
  | Spec.Power_big -> 1.0
  | Spec.Power_little -> 0.05
  | Spec.Temperature -> 45.0

let draw_sensor st =
  let c = channel_of_int (Random.State.int st 4) in
  match Random.State.int st 3 with
  | 0 -> Spec.Sensor (c, Spec.Dropout)
  | 1 -> Spec.Sensor (c, Spec.Stuck_at (stuck_value c))
  | _ -> Spec.Sensor (c, Spec.Spike (range st 1.3 2.2))

let draw_actuator st =
  match Random.State.int st 2 with
  | 0 -> Spec.Actuator Spec.Stuck
  | _ -> Spec.Actuator (Spec.Delayed (range st 1.0 3.0))

let draw_drift st severity =
  match Random.State.int st 3 with
  | 0 -> Spec.Power_gain_drift severity
  | 1 -> Spec.Thermal_resistance_drift severity
  | _ -> Spec.Workload_phase_shift severity

(* Stratified sampling: fault [i] cycles through the three families
   (sensor, plant drift, actuator) so a campaign covers the vocabulary
   instead of concentrating on whichever family the seed happens to
   favor; only the specific shape and its parameters are random. A
   representative mix keeps the campaign's verdict about the schemes,
   not about the draw. *)
let draw_kind st severity index =
  match index mod 3 with
  | 0 -> draw_sensor st
  | 1 -> draw_drift st severity
  | _ -> draw_actuator st

let generate ~seed profile =
  let st = Random.State.make [| seed; profile.count |] in
  let faults =
    List.init profile.count (fun i ->
        let start = range st (0.05 *. profile.horizon) (0.65 *. profile.horizon) in
        let duration =
          range st (0.08 *. profile.horizon) (0.25 *. profile.horizon)
        in
        let kind = draw_kind st profile.severity i in
        Spec.make ~start ~duration kind)
  in
  List.sort
    (fun (a : Spec.timed) b ->
      match compare a.Spec.start b.Spec.start with
      | 0 -> compare a b
      | c -> c)
    faults

let first_start = function
  | [] -> None
  | schedule ->
    Some
      (List.fold_left
         (fun acc (f : Spec.timed) -> Float.min acc f.Spec.start)
         infinity schedule)

let last_clear = function
  | [] -> None
  | schedule ->
    Some
      (List.fold_left
         (fun acc f -> Float.max acc (Spec.stop f))
         neg_infinity schedule)

let to_json schedule = Obs.Json.List (List.map Spec.to_json schedule)
