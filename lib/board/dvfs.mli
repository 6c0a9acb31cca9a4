(** DVFS tables of the simulated Exynos 5422 big.LITTLE processor.

    The big (Cortex-A15) cluster runs 0.2-2.0 GHz and the little
    (Cortex-A7) cluster 0.2-1.4 GHz, both in 0.1 GHz steps, matching the
    ODROID XU3 ranges the paper actuates on. Voltage follows an affine
    frequency map fitted to published Exynos operating points; power scales
    as [C V^2 f]. *)

type cluster = Big | Little

val f_min : cluster -> float
(** 0.2 GHz for both clusters. *)

val f_max : cluster -> float
(** 2.0 GHz (big) / 1.4 GHz (little). *)

val levels : cluster -> float array
(** All frequency levels, ascending. *)

val quantize : cluster -> float -> float
(** Project an arbitrary request onto the DVFS table. *)

val voltage : cluster -> float -> float
(** Supply voltage (V) at a given frequency (GHz). *)

val transition_cost_s : float
(** Wall-clock cost of a frequency change (PLL relock), in seconds. *)

val hotplug_cost_s : float
(** Wall-clock cost of turning a core on or off, in seconds. *)

val core_count : int
(** Four cores per cluster. *)
