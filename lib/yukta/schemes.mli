(** The first-class scheme registry.

    A {e scheme} is a named stack of layers — one row of the paper's
    Table IV, one of the Section VI-B LQG arrangements, or any other
    registered composition. The registry is the single source of the
    name, abbreviation, CLI key and description every consumer (the
    bench harness, the CLI, the experiment drivers) prints, replacing
    the three tables they used to copy.

    Entries are pure data; {!stack} builds a fresh, runnable stack for
    an entry (controller designs are memoized by {!Designs}, so only
    the per-run state is new). *)

type info = {
  name : string;         (** Display name, e.g. ["Yukta: HW SSV+OS SSV"]. *)
  abbrev : string;       (** Column-width tag, e.g. ["HWssv+OSssv"]. *)
  key : string;          (** Canonical CLI key, e.g. ["yukta"]. *)
  aliases : string list; (** Extra keys that keep parsing. *)
  description : string;
  citation : string;     (** Where the paper defines it, e.g. ["Table IV(d)"]. *)
  layers : string list;  (** Layer labels in stepping order. *)
}

val all : info list
(** Registered schemes, in the paper's presentation order. *)

val find : string -> info option
(** Look up by key or alias (exact), or by abbreviation, display name
    or key case-insensitively. *)

val find_exn : string -> info
(** @raise Invalid_argument with the list of valid keys. *)

val stack : info -> Stack.t
(** A fresh stack for the entry. SSV/LQG schemes use the default
    {!Designs} (synthesized on first use, then memoized). *)

val run :
  ?max_time:float ->
  ?collect_trace:bool ->
  ?injector:Board.Xu3.injector ->
  info ->
  Board.Workload.t list ->
  Stack.result
(** [Stack.run] on a fresh {!stack} at the default epoch and sensor
    period (same other optional arguments). *)

(** {1 Layer and stack builders}

    The pieces the bench harness composes for sensitivity studies, and
    the constructors behind the registered entries. *)

val hw_ssv_layer : Design.synthesis -> Layer.t
(** The Table II hardware layer around an (e.g. variant) synthesis. *)

val sw_ssv_layer : Design.synthesis -> Layer.t
(** The Table III software layer. *)

val qos_layer : unit -> Layer.t
(** The demonstration third layer (Section III-D): a per-application
    QoS governor above the OS layer. A constant-target SSV-style
    compensator holds a 30 fps target by trading the application's
    quality knob (work per frame), reading the hardware frequency — its
    only view of the layers below — as an external signal. *)

val yukta_full_stack : Design.synthesis -> Design.synthesis -> Stack.t
(** Scheme (d) with explicit designs: HW under OS ([hw] last). *)

val hw_ssv_os_heuristic_stack : Design.synthesis -> Stack.t
(** Scheme (c) with an explicit hardware design: the SSV hardware layer
    under the coordinated OS scheduler heuristic — the single-SSV-layer
    arrangement the design-space sweep explores. *)

val yukta_no_externals_stack : Design.synthesis -> Design.synthesis -> Stack.t
(** Ablation: the same controllers with their external-signal channels
    fed the constant center value (the coordination channel cut). *)

val yukta_fixed_targets_stack : Design.synthesis -> Design.synthesis -> Stack.t
(** Ablation: optimizers replaced by their initial constant targets. *)

val fixed_targets_stack :
  hw_design:Design.synthesis ->
  sw_design:Design.synthesis ->
  hw_targets:Linalg.Vec.t ->
  sw_targets:Linalg.Vec.t ->
  Stack.t
(** The fixed-target mode of Sections VI-E1/VI-E3: both controllers
    track the given constant targets. *)
