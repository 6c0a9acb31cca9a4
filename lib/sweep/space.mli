(** The typed synthesis design space: the axes a sweep explores.

    Each axis is one knob of the Figure 3 design pipeline or of the
    runtime that executes its output — the same knobs the paper's
    Section VI-E sensitivity studies turn one at a time, here swept
    jointly:

    - {e delta} — the uncertainty guardband of the hardware-layer
      specification (Figure 16 turns this knob);
    - {e input weight} — the H-infinity actuator-effort weight of the
      hardware layer (Figure 17);
    - {e bound} — the performance-output deviation bound, applied to the
      hardware layer and, proportionally, to the software layer
      (Figure 15);
    - {e epoch} — the runtime stepping period the synthesized stack is
      invoked at (the controllers themselves stay designed at their
      0.5 s period, so off-nominal epochs probe invocation-rate
      mismatch);
    - {e arrangement} — which layers run, in which order, built from the
      {!Yukta.Schemes} stack builders (full two-layer Yukta, the
      reversed stepping order, hardware SSV under the heuristic OS).

    A {e point} is one concrete assignment, identified by its index in
    the fixed mixed-radix enumeration order, so a point id means the
    same design everywhere: across shards, job counts and resumed runs
    (the determinism contract of DESIGN.md section 14). *)

(** Layer subset/ordering of a point, realized via the [Yukta.Schemes]
    builders. *)
type arrangement =
  | Sw_over_hw  (** The paper's order: software steps before hardware
                    (scheme (d), [Schemes.yukta_full_stack]). *)
  | Hw_over_sw  (** Both SSV layers, stepping order reversed. *)
  | Hw_only     (** Hardware SSV under the coordinated heuristic OS
                    scheduler (scheme (c)). *)

val arrangement_name : arrangement -> string
(** ["sw>hw"], ["hw>sw"], ["hw-only"]. *)

type t = private {
  deltas : float array;        (** Uncertainty guardbands, e.g. 0.4 = ±40%. *)
  weights : float array;       (** Input-weight scalings. *)
  bounds : float array;        (** Performance deviation bounds. *)
  epochs : float array;        (** Stepping epochs, seconds. *)
  arrangements : arrangement array;
}
(** An axis grid. Private: build one with {!make} (which validates) so
    every [t] in flight enumerates safely. *)

val make :
  ?deltas:float array ->
  ?weights:float array ->
  ?bounds:float array ->
  ?epochs:float array ->
  ?arrangements:arrangement array ->
  unit ->
  t
(** A space from explicit axis values; omitted axes default to the
    {!default} grid's. Axis values must be positive and each axis
    non-empty.
    @raise Invalid_argument on an empty axis or a non-positive value. *)

val default : t
(** The full exploration grid: guardbands {0.4, 1.0, 2.5}, weights
    {0.5, 1.0, 2.0}, bounds {0.2, 0.3, 0.5}, epochs {0.25, 0.5, 1.0},
    all three arrangements — 243 points, 27 hardware-layer syntheses. *)

val smoke : t
(** The CI-sized grid: guardbands {0.4, 1.0}, bounds {0.2, 0.5}, weight
    1.0, epoch 0.5 s, arrangements [Sw_over_hw] and [Hw_only] — 8
    points, 4 hardware-layer syntheses. *)

val cardinality : t -> int
(** Number of points in the grid (product of axis lengths). *)

type point = {
  id : int;             (** Index in enumeration order, [0 .. cardinality-1]. *)
  delta : float;
  weight : float;
  bound : float;
  epoch : float;
  arrangement : arrangement;
}

val point : t -> int -> point
(** Decode a point id (mixed-radix, axes varying fastest in declaration
    order: delta, weight, bound, epoch, arrangement).
    @raise Invalid_argument when the id is outside the grid. *)

val sample : t -> seed:int -> count:int -> int list
(** A deterministic sample of [count] distinct point ids, ascending.
    [count >= cardinality] (or [count <= 0]) selects every point; a
    proper subset is drawn by a partial Fisher-Yates shuffle whose
    randomness derives from [seed] through [Fleet.Seed.derive] (swap
    step [i] draws board [i]'s stream 0), so the same [(space, seed, count)]
    yields the same ids on every run, shard and machine. *)

val to_json : t -> Obs.Json.t
(** The axis grid as a JSON object (one array per axis) — the ["space"]
    block of the sweep artifact. *)

val point_fields : point -> (string * Obs.Json.t) list
(** The point's axis assignment as JSON fields ([id], [delta],
    [input_weight], [bound], [epoch_s], [arrangement]) — embedded in
    frontier members and checkpoint lines. *)

val point_of_fields : Obs.Json.t -> point option
(** Recover a point from an object carrying {!point_fields}; [None] if
    any field is missing or malformed. *)

val fingerprint : t -> string
(** A short hex digest of the axis grid. Checkpoints and shard
    artifacts embed it (combined with the plan parameters — see
    [Run.fingerprint]) so a resumed or merged sweep can refuse to mix
    results from different spaces. *)
