(** Signal descriptors for SSV controller design (Section III-C).

    A layer team initiates its controller design by declaring, for every
    signal, the information SSV synthesis consumes: allowed discrete values
    and a weight for each input; a deviation bound (as a fraction of the
    observed range) for each output; and, for each external signal, the
    allowed discrete values of the owning layer's input of that name,
    received through the interface exchange (Figure 3).

    All design happens in {e normalized} coordinates: a signal with range
    [[lo, hi]] maps to [[-1, 1]] via its center and half-span. The helpers
    here convert both ways; the runtime controller wrapper applies them at
    every invocation. *)

type input = {
  name : string;
  channel : Control.Quantize.channel;  (** Allowed discrete values. *)
  weight : float;                      (** Eagerness to change (higher =
                                           more conservative). *)
}

type output = {
  name : string;
  lo : float;          (** Smallest value observed during training. *)
  hi : float;          (** Largest value observed during training. *)
  bound_fraction : float;  (** Allowed deviation as a fraction of range,
                               e.g. 0.10 for the critical outputs. *)
  critical : bool;     (** Power/temperature-class outputs. *)
  integral : bool;     (** Demand (near-)offset-free tracking. Disable for
                           outputs whose dynamics are too slow for the
                           control authority (e.g. temperature, which is a
                           stay-under constraint rather than a setpoint). *)
}

(** Another layer's input, read by this layer (Figure 3). Design and
    runtime read only the channel's range, to normalize. *)
type external_signal = { name : string; channel : Control.Quantize.channel }

val input : name:string -> minimum:float -> maximum:float -> step:float -> weight:float -> input

val output :
  name:string ->
  lo:float ->
  hi:float ->
  bound_fraction:float ->
  ?critical:bool ->
  ?integral:bool ->
  unit ->
  output

val bound_absolute : output -> float
(** Allowed absolute deviation: [bound_fraction * (hi - lo)]. *)

(** {1 Normalization} *)

val center : Control.Quantize.channel -> float
(** Midpoint of a channel's range: an input's or external's zero in
    normalized units. *)

val half_span : Control.Quantize.channel -> float
(** Half a channel's range: one normalized unit. *)

val center_output : output -> float
val half_span_output : output -> float

val normalize_input : input -> float -> float
val normalize_output : output -> float -> float
val normalize_external : external_signal -> float -> float

val normalized_bound : output -> float
(** The deviation bound in normalized units:
    [bound_absolute / half_span]. *)

val quantization_uncertainty : input -> float
(** Relative uncertainty the input's grid contributes (step/2 over
    half-span) — folded into the Delta_in block. *)
