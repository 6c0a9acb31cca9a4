open Linalg

type role = Maximize | Track | Limited of float | Fixed of float

type t = {
  outputs : Signal.output array;
  roles : role array;
  caps : float array;        (* Highest admissible target per output. *)
  floors : float array;
  mutable current : Vec.t;
  mutable accepted : Vec.t;  (* Targets in effect before the last move. *)
  mutable best : float;      (* Best objective ever seen. *)
  mutable best_targets : Vec.t;  (* Targets that produced it. *)
  mutable previous : float;  (* Objective under the accepted targets. *)
  mutable going_up : bool;
  mutable warmup : int;      (* Updates to skip before hill-climbing. *)
}

(* Step size of the hill climb on limited outputs, as a fraction of the
   cap-to-floor span per retarget. *)
let step_fraction = 0.05

(* Maximize-class targets lead the measured value by one deviation bound:
   a constant upward pull that tracks what the system can actually do
   instead of an arbitrary far-away setpoint. *)
let lead_bounds = 1.0

(* A limited output's target stays a tenth of a bound below its cap: the
   controller keeps excursions within the bound, and the emergency trip
   thresholds sit well above the limits, so steady state hugs the cap the
   way Figure 10(d) shows. *)
let cap_of o role =
  match role with
  | Maximize | Track -> o.Signal.hi
  | Limited limit -> limit -. (0.4 *. Signal.bound_absolute o)
  | Fixed v -> v

(* Hill-climb excursions on limited outputs stay above a floor well inside
   the range: the E x D optimum of memory-bound work sits below the cap,
   but never near idle. *)
let floor_of o role =
  match role with
  | Maximize | Track -> o.Signal.lo
  | Limited limit ->
    let cap = limit -. (0.4 *. Signal.bound_absolute o) in
    o.Signal.lo +. (0.35 *. (cap -. o.Signal.lo))
  | Fixed v -> v

(* The search starts at the cap: it reaches the compute-bound optimum
   immediately and descends only when the measured E x D says so. *)
let initial_target o role =
  match role with
  | Maximize | Track -> Signal.center_output o
  | Limited _ -> cap_of o role
  | Fixed v -> v

let make ~outputs ~roles =
  if Array.length outputs <> Array.length roles then
    invalid_arg "Optimizer.make: outputs/roles length mismatch";
  let current = Array.mapi (fun i o -> initial_target o roles.(i)) outputs in
  {
    outputs;
    roles;
    caps = Array.mapi (fun i o -> cap_of o roles.(i)) outputs;
    floors = Array.mapi (fun i o -> floor_of o roles.(i)) outputs;
    current;
    accepted = Vec.copy current;
    best = infinity;
    best_targets = Vec.copy current;
    previous = infinity;
    going_up = false;
    warmup = 8;
  }

let targets t = Vec.copy t.current

let clamp t i v = Float.min t.caps.(i) (Float.max t.floors.(i) v)

(* One hill-climb move on the limited outputs (up = toward the caps). *)
let move t =
  let next = Vec.copy t.current in
  Array.iteri
    (fun i o ->
      match t.roles.(i) with
      | Limited _ ->
        let span = t.caps.(i) -. t.floors.(i) in
        let delta =
          if t.going_up then step_fraction *. span
          else -.step_fraction *. span
        in
        next.(i) <- clamp t i (next.(i) +. delta)
      | Maximize | Track | Fixed _ -> ignore o)
    t.outputs;
  t.current <- next

(* Tolerated relative worsening: phase changes and sensor noise perturb
   the objective, so only a clear regression triggers a reversal. *)
let noise_tolerance = 0.01

(* Regression beyond this factor of the best objective snaps the search
   back to the best-known targets: feedback lag can let a few bad moves
   compound before the objective responds. *)
let recovery_factor = 1.2

(* The remembered best inflates slowly so that optima measured under
   transient conditions (thermal lag, phase boundaries) cannot anchor the
   search forever. *)
let best_decay = 1.02

let update t ~objective ~measurements =
  if Vec.dim measurements <> Array.length t.outputs then
    invalid_arg "Optimizer.update: measurement dimension mismatch";
  if Float.is_finite t.best then t.best <- t.best *. best_decay;
  if objective < t.best then begin
    t.best <- objective;
    t.best_targets <- Vec.copy t.current
  end;
  if t.warmup > 0 then begin
    (* Thermal and scheduling transients dominate the first epochs; hold
       the limited targets at their caps until the plant settles. *)
    t.warmup <- t.warmup - 1;
    t.previous <- objective
  end
  else if objective > t.best *. recovery_factor then begin
    (* Lost the plateau: jump home. *)
    t.previous <- objective;
    t.current <- Vec.copy t.best_targets;
    t.accepted <- Vec.copy t.current;
    t.going_up <- true
  end
  else if objective <= t.previous *. (1.0 +. noise_tolerance) then begin
    (* The last move did not hurt: lock it in and continue. *)
    t.previous <- objective;
    t.accepted <- Vec.copy t.current;
    move t
  end
  else begin
    (* The move hurt: discard it and head the other way. *)
    t.previous <- objective;
    t.current <- Vec.copy t.accepted;
    t.going_up <- not t.going_up;
    move t
  end;
  (* Maximize-class targets chase the measurement from one bound ahead;
     Track-class targets follow it exactly (no pull of their own). *)
  Array.iteri
    (fun i o ->
      match t.roles.(i) with
      | Maximize ->
        t.current.(i) <-
          clamp t i
            (measurements.(i) +. (lead_bounds *. Signal.bound_absolute o))
      | Track -> t.current.(i) <- clamp t i measurements.(i)
      | Limited _ | Fixed _ -> ())
    t.outputs;
  Vec.copy t.current

let reset t =
  Array.iteri
    (fun i o -> t.current.(i) <- initial_target o t.roles.(i))
    t.outputs;
  t.accepted <- Vec.copy t.current;
  t.best <- infinity;
  t.best_targets <- Vec.copy t.current;
  t.previous <- infinity;
  t.going_up <- false;
  t.warmup <- 8
