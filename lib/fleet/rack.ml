(* The rack layer: one controller above N per-board stacks, apportioning
   a shared power budget each rack epoch from measured per-board power
   and progress. Everything here is plain float arithmetic over arrays
   in index order — deterministic at any job count by construction. *)

type policy = Even_split | Proportional | Feedback

let policy_name = function
  | Even_split -> "even-split"
  | Proportional -> "proportional"
  | Feedback -> "feedback"

let policy_of_string s =
  match String.lowercase_ascii s with
  | "even" | "even-split" | "even_split" | "static" -> Some Even_split
  | "prop" | "proportional" -> Some Proportional
  | "feedback" | "lqg" -> Some Feedback
  | _ -> None

(* A board can never productively draw more than the emergency limiters
   allow for a sustained stretch; demand estimates saturate there. *)
let board_ceiling = Board.Emergency.power_trip_big +. Board.Emergency.power_trip_little

(* No allocation drops below this (keeps a throttled board above idle so
   it can still make progress and report demand). *)
let default_floor = 0.45

(* Demand EWMA smoothing and the cap-limited inflation factor: a board
   drawing at (or pressed against) its cap is assumed to want more. *)
let ewma_alpha = 0.5

let pressed_fraction = 0.92

let inflation = 1.25

type t = {
  policy : policy;
  cap : float;                  (* Shared budget, watts. *)
  floor : float;
  gain : float;                 (* Feedback trim gain (DARE-derived). *)
  demand : float array;         (* EWMA per-board demand estimate, W. *)
  caps : float array;           (* Current apportionment, watts. *)
  mutable trim : float;         (* Feedback budget multiplier. *)
}

let make ~policy ~boards ~cap () =
  if boards < 1 then invalid_arg "Rack.make: boards must be >= 1";
  if not (cap > 0.0) then invalid_arg "Rack.make: cap must be positive";
  let fair = cap /. float_of_int boards in
  let floor = Float.min default_floor fair in
  let gain =
    match policy with
    | Feedback -> Yukta.Designs.rack_gain ()
    | Even_split | Proportional -> 0.0
  in
  {
    policy;
    cap;
    floor;
    gain;
    demand = Array.make boards (Float.min fair board_ceiling);
    caps = Array.make boards fair;
    trim = 1.0;
  }

let caps t = t.caps

let trim t = t.trim

(* Weighted water-filling: start every unfrozen board at [floor],
   distribute the remaining budget proportionally to weight, freeze
   boards that hit [board_ceiling] and redistribute their overflow.
   Each pass either freezes a board or exhausts the budget, so the loop
   runs at most [boards] times. *)
let waterfill ~floor ~budget ~weights ~frozen out =
  let n = Array.length weights in
  let extra = ref (budget -. (float_of_int n *. floor)) in
  for i = 0 to n - 1 do
    out.(i) <- floor
  done;
  let continue_ = ref (!extra > 1e-9) in
  while !continue_ do
    let wsum = ref 0.0 in
    for i = 0 to n - 1 do
      if not frozen.(i) then wsum := !wsum +. weights.(i)
    done;
    if !wsum <= 1e-12 then continue_ := false
    else begin
      let gave = ref 0.0 in
      let any_frozen = ref false in
      for i = 0 to n - 1 do
        if not frozen.(i) && weights.(i) > 0.0 then begin
          let give = !extra *. weights.(i) /. !wsum in
          let room = board_ceiling -. out.(i) in
          if give >= room then begin
            out.(i) <- board_ceiling;
            gave := !gave +. room;
            frozen.(i) <- true;
            any_frozen := true
          end
          else begin
            out.(i) <- out.(i) +. give;
            gave := !gave +. give
          end
        end
      done;
      extra := !extra -. !gave;
      continue_ := !any_frozen && !extra > 1e-9
    end
  done

let step t ~power ~progress ~active =
  let n = Array.length t.caps in
  if
    Array.length power <> n
    || Array.length progress <> n
    || Array.length active <> n
  then invalid_arg "Rack.step: measurement arrays must match board count";
  match t.policy with
  | Even_split -> () (* Static: the baseline never moves. *)
  | Proportional | Feedback ->
    (* 1. Demand estimation. A board pressed against its cap is
       cap-limited: its true demand is above what it drew, so the
       sample inflates past the cap before the EWMA folds it in. *)
    for i = 0 to n - 1 do
      if active.(i) then begin
        let sample =
          if power.(i) >= pressed_fraction *. t.caps.(i) then
            Float.min board_ceiling
              (Float.max power.(i) (t.caps.(i) *. inflation))
          else power.(i)
        in
        let d = ((1.0 -. ewma_alpha) *. t.demand.(i)) +. (ewma_alpha *. sample) in
        t.demand.(i) <- Float.max t.floor (Float.min board_ceiling d)
      end
      else t.demand.(i) <- 0.0
    done;
    (* 2. Feedback budget trim: integrate the normalized headroom error
       with the DARE gain, so sustained underdraw (caps are limits, not
       consumption) safely oversubscribes the budget and sustained
       overdraw pulls it back. The heuristic policy runs with trim 1. *)
    let budget =
      match t.policy with
      | Feedback ->
        let total = ref 0.0 in
        for i = 0 to n - 1 do
          if active.(i) then total := !total +. power.(i)
        done;
        let err = (t.cap -. !total) /. t.cap in
        t.trim <- Float.max 0.8 (Float.min 1.3 (t.trim +. (t.gain *. err)));
        t.cap *. t.trim
      | Even_split | Proportional -> t.cap
    in
    (* 3. Apportionment: water-fill on demand weights. Feedback also
       tilts toward laggards (lower progress) to compress the spread of
       finish times — makespan is what multiplies fleet E x D. *)
    let weights = Array.make n 0.0 in
    let frozen = Array.make n false in
    for i = 0 to n - 1 do
      if active.(i) then
        weights.(i) <-
          (match t.policy with
          | Feedback -> t.demand.(i) *. (1.0 +. (0.5 *. (1.0 -. progress.(i))))
          | Even_split | Proportional -> t.demand.(i))
      else frozen.(i) <- true
    done;
    waterfill ~floor:t.floor ~budget ~weights ~frozen t.caps
