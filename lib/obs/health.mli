(** Online controller-health monitors.

    A {!t} accumulates, per stack run, the quantities the paper treats
    as first-class evidence that a controller can be trusted with its
    knobs: per-layer tracking error (EWMA and full {!Stats.Welford}
    moments), actuator saturation duty cycle, guardband proximity per
    physical channel (worst-case fraction of the limit→trip guardband
    consumed, time spent above the limit, and an exact
    {!Stats.Hist} over the fraction), and emergency-trip counts.

    The accumulator is generic — it knows labels, errors and channels,
    not layers or boards — so it lives in [Obs] and is fed by the
    runtime ([Stack.run]/[Layer.step]) each epoch. Updates are
    allocation-light and everything is driven by simulated-time data,
    so enabling health monitoring cannot perturb a run: clean runs stay
    bit-identical.

    Health from parallel campaign cells reduces with {!merge_into}
    (Welford moments via the Chan et al. update, histograms exactly,
    EWMAs as a decision-count-weighted average — the one approximate
    merge, since an EWMA is order-dependent by construction). Folding
    cells in a fixed order yields byte-identical aggregates at any job
    count. *)

type t

type layer
(** Per-layer accumulator, owned by a {!t}. *)

type channel
(** Per-physical-channel guardband accumulator, owned by a {!t}. *)

val create : unit -> t

val layer : t -> string -> layer
(** Find-or-create the accumulator for the layer labelled [label].
    Creation order is output order, so callers register layers in
    stepping order. *)

val channel : t -> name:string -> limit:float -> trip:float -> channel
(** Find-or-create the guardband channel [name] with controller [limit]
    and emergency [trip] threshold.
    @raise Invalid_argument when [trip <= limit], or when [name] exists
    with different thresholds. *)

val note_decision : layer -> err:float -> saturated:bool -> unit
(** Record one controlled decision: [err] is the layer's normalized RMS
    tracking error this epoch (it also feeds an EWMA with smoothing
    factor 0.05); [saturated] whether any actuator command hit its
    rail. *)

val note_heuristic : layer -> unit
(** Record one heuristic (non-controlled) decision — counts only. *)

val observe_channel : channel -> value:float -> dt:float -> unit
(** Record the channel at [value] for the last [dt] simulated seconds.
    The guardband fraction is [(value - limit) / (trip - limit)]:
    negative below the limit, [0..1] inside the guardband, above [1]
    past the trip threshold. [dt] accrues to time-in-violation when
    [value > limit]. *)

val note_epoch : t -> dt:float -> unit
(** Account one epoch of [dt] simulated seconds. *)

val note_trips : t -> int -> unit
(** Add [n] emergency trips (callers pass the delta of the board's trip
    counter). *)

val epochs : t -> int

val merge_into : into:t -> t -> unit
(** Fold [src] into [into]; [src] is untouched. An [into] with no
    layers and no channels (fresh from {!create}) adopts [src]'s
    layout, so reducers can start from [create ()] and fold.
    @raise Invalid_argument when both sides are populated and their
    layer label sequences or channel definitions differ. *)

val to_json : t -> Json.t
(** Deterministic summary document (layers and channels in creation
    order):
    [{"epochs":..,"sim_s":..,"trips":..,
      "layers":[{"label":..,"decisions":..,"saturation_duty":..,
                 "err_ewma":..,"err":{Welford}}...],
      "channels":[{"name":..,"limit":..,"trip":..,
                   "worst_guardband_fraction":..,"violation_s":..,
                   "fraction_hist":{Hist}}...]}] *)

val render : t -> string
(** Human-readable multi-line table (for [yukta_cli run --health]). *)
