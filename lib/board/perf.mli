(** Core performance model.

    A thread's throughput on a core follows a roofline-flavoured law: at
    low frequency it scales with [ipc_peak * f]; as frequency rises, the
    memory-bound fraction of the instruction mix saturates against a fixed
    memory service rate, so the effective IPC falls. Multiplexing several
    threads on one core time-shares its throughput with a small context-
    switch penalty — the behaviour the software controller exploits when it
    packs threads to let the hardware controller power cores off. *)

val core_throughput :
  kind:Dvfs.cluster ->
  freq:float ->
  mem_intensity:float ->
  ipc_scale:float ->
  threads_on_core:float ->
  float
(** Instructions per second (in GIPS) retired by one core running
    [threads_on_core] runnable threads of the given character. Zero
    threads yields zero. *)

val cluster_throughput :
  kind:Dvfs.cluster ->
  freq:float ->
  cores_on:int ->
  threads:int ->
  threads_per_core:float ->
  mem_intensity:float ->
  ipc_scale:float ->
  float * int
(** Aggregate GIPS of a cluster and the number of non-idle cores, when
    [threads] threads are spread at [threads_per_core] per non-idle core
    (clamped to what [cores_on] allows). *)

val speedup_big_over_little : mem_intensity:float -> float
(** Convenience ratio used by schedulers: throughput of a big core at
    [f_max] over a little core at its [f_max] for the given mix. *)
