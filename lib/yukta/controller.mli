(** The runtime SSV controller state machine (Section VI-D).

    The synthesized controller is the discrete LTI system of Equations 3-4:

    [x(T+1) = A x(T) + B dy(T)]
    [u(T)   = C x(T) + D dy(T)]

    where [dy] stacks the output deviations from their targets and the
    external signals (all in the normalized design coordinates), and [u]
    is the vector of new input settings. This module wraps the normalized
    LTI core with the de/normalization and the per-channel projection onto
    each input's allowed discrete values, and reports the implementation
    cost figures the paper quotes (N = 20 states, ~700 fixed-point
    operations, ~2.6 KB for the hardware controller). *)

type t

val make :
  controller:Control.Ss.t ->
  inputs:Signal.input array ->
  outputs:Signal.output array ->
  externals:Signal.external_signal array ->
  t
(** Wrap a synthesized controller whose measurement vector is
    [[output deviations; externals]] and whose command vector matches
    [inputs]. @raise Invalid_argument on dimension mismatch. *)

val reset : t -> unit
(** Zero the controller state (start of an execution). *)

val copy : t -> t
(** A fresh controller over the same (immutable) LTI core and signal
    specs, with zeroed state. Memoized designs hand out a single shared
    instance per process; every stack copies the controllers it mounts,
    so two stacks — or two domains — never share the state vector. *)

val step :
  t ->
  measurements:Linalg.Vec.t ->
  targets:Linalg.Vec.t ->
  externals:Linalg.Vec.t ->
  Linalg.Vec.t
(** One control invocation: physical-unit measurements, targets and
    external values in; quantized physical-unit input settings out.
    The returned vector is a buffer owned by the controller and reused
    by the next [step] — copy it if you need it to survive. A
    steady-state invocation performs no allocation. *)

val bumpless_from : t -> from:t -> unit
(** Prepare [t] to take over from [from] mid-run without an actuation
    bump: [t]'s state is aligned (ridge least squares on [C x = u_raw -
    D dy] at [from]'s last operating point) and a one-step output hold
    of [from]'s last commands is installed, so [t]'s {e first} [step]
    emits exactly [from]'s last raw and quantized commands while the
    aligned state already advances under the new dynamics. Both
    controllers must share command and measurement dimensions; only
    meaningful when [from] has stepped at least once.
    @raise Invalid_argument on dimension mismatch. *)

val last_raw_command : t -> Linalg.Vec.t
(** The pre-quantization command of the last [step] (normalized units);
    exposed for the quantization-ablation bench. *)

val last_tracking_error : t -> float
(** RMS of the last [step]'s normalized output deviations (the first
    block of [dy]; externals excluded). Reads the step buffer in place
    — no allocation — and is only meaningful right after a [step]. *)

val last_saturated : t -> bool
(** Whether any pre-quantization command of the last [step] sat at a
    normalized rail ([|u| >= 1]). Same in-place, allocation-free
    contract as {!last_tracking_error}. *)

val order : t -> int

type cost = {
  states : int;
  inputs : int;
  outputs_and_externals : int;
  multiply_accumulates : int;  (** Per invocation; each is one multiply
                                   plus one add (the paper counts both,
                                   i.e. twice this figure). *)
  storage_bytes : int;         (** 32-bit fixed point as in the paper. *)
}

val cost : t -> cost

val internal : t -> Control.Ss.t
(** The normalized LTI core (for analysis and tests). *)
