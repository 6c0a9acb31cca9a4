(** Power model of the simulated big.LITTLE processor.

    Per-cluster power is dynamic switching power [n_active C V^2 f a]
    (activity [a] from utilization) plus per-powered-core leakage that
    grows with temperature, plus a small uncore term. Calibrated so that
    the full big cluster at 2 GHz draws well above the paper's 3.3 W
    sustained limit and the little cluster at 1.4 GHz above its 0.33 W
    limit — the emergency heuristics must have something to do. *)

type cluster_load = {
  cores_on : int;        (** Powered cores (hotplug), 0-4. *)
  freq : float;          (** Cluster frequency, GHz. *)
  utilization : float;   (** Mean busy fraction of powered cores, 0-1. *)
  temperature : float;   (** Cluster temperature, Celsius (for leakage). *)
}

val cluster_power : Dvfs.cluster -> cluster_load -> float
(** Cluster power draw in watts. *)

val cluster_power_on :
  Dvfs.cluster ->
  cores_on:int ->
  freq:float ->
  utilization:float ->
  temperature:float ->
  float
(** Same computation with labeled arguments — the per-tick form, which
    does not allocate a {!cluster_load}. *)

val max_power : Dvfs.cluster -> float
(** Power with all cores busy at maximum frequency and 85C. *)
