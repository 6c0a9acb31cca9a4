(** Memoized controller designs.

    Training and mu-synthesis are the expensive offline part of the flow
    (once per platform in the paper). Defaults are lazy and shared;
    everything is also cached on disk under [.yukta_cache/],
    content-addressed by the training records and layer specification.
    Set the environment variable [YUKTA_NO_CACHE] to disable the disk
    cache (e.g. when editing the design pipeline itself).

    All entry points are serialized by an internal mutex, so concurrent
    first use from several domains is safe (unsynchronized concurrent
    [Lazy.force] would raise in OCaml 5, and two domains could race a
    cache file). Parallel drivers should still call {!prepare} — or
    build the stacks they are about to run — {e once, before fan-out},
    so the expensive synthesis happens exactly once instead of workers
    queuing on the lock; see the concurrency notes in [DESIGN.md]. *)

val cache_dir : string
(** The on-disk cache directory, [.yukta_cache]. Every entry is a
    [<digest>.bin] Marshal blob, with a one-line [<digest>.meta]
    sidecar naming what it holds (what [yukta_cli cache] lists). *)

val get_records : unit -> Training.records
(** The default training records (computed once per process). *)

val hw : unit -> Design.synthesis
(** The default Table II hardware-layer design. *)

val sw : unit -> Design.synthesis
(** The default Table III software-layer design. *)

val hw_no_quant : unit -> Design.synthesis
(** The default hardware-layer spec synthesized with
    [~ignore_quantization:true]: the quantization-unaware design of the
    [bench --ablation] study, memoized and disk-cached like {!hw} under
    its own key. {!prepare} does not force it. *)

val design_hw_with : Design.spec -> Design.synthesis
(** Synthesize a hardware-layer variant (sensitivity studies) against the
    default records. *)

val design_sw_with : Design.spec -> Design.synthesis

val lqg_hw : unit -> Controller.t
(** The decoupled-LQG baselines (Section VI-B). *)

val lqg_sw : unit -> Controller.t
val lqg_monolithic : unit -> Controller.t

val rack_gain : unit -> float
(** The rack layer's budget-tracking feedback gain: the LQR of a scalar
    integrator plant (total fleet power vs. the cap trim), solved by the
    same DARE machinery as the LQG baselines and cached in
    [.yukta_cache/] (keyed by plant weights only — no training records).
    Used by [Fleet.Rack]'s feedback policy. *)

val prepare : unit -> unit
(** Force every default memo (records, both SSV designs, all three LQG
    baselines) under the lock — the single-force-before-fan-out step of
    parallel drivers. Idempotent; later calls are cheap. *)
