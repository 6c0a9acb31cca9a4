type cluster_load = {
  cores_on : int;
  freq : float;
  utilization : float;
  temperature : float;
}

(* Effective switching capacitance per core in nF-equivalents chosen so
   that 4 A15 cores at 2 GHz / 1.25 V draw about 5.5 W dynamic and
   4 A7 cores at 1.4 GHz / 1.2 V about 0.45 W. *)
let cap_per_core = function Dvfs.Big -> 0.46 | Dvfs.Little -> 0.062

(* Leakage per powered core at 45C, in watts, with a linear temperature
   coefficient (a linearization of the exponential subthreshold term over
   the 40-90C band the board operates in). *)
let leak_per_core = function Dvfs.Big -> 0.055 | Dvfs.Little -> 0.008

let leak_temp_coeff = 0.012

(* Cluster-shared (uncore/L2) power when any core is powered. *)
let uncore = function Dvfs.Big -> 0.08 | Dvfs.Little -> 0.015

(* Idle-but-powered cores still clock-gate most of the pipeline; they see a
   fraction of the busy activity factor. *)
let idle_activity = 0.12

(* Labeled-argument form: the simulator calls this every 10 ms tick, and
   the record wrapper below would allocate per call. *)
let cluster_power_on kind ~cores_on ~freq ~utilization ~temperature =
  if cores_on < 0 || cores_on > Dvfs.core_count then
    invalid_arg "Power.cluster_power: cores_on out of range";
  if cores_on = 0 then 0.0
  else begin
    let utilization = Float.min 1.0 (Float.max 0.0 utilization) in
    let v = Dvfs.voltage kind freq in
    let activity = idle_activity +. ((1.0 -. idle_activity) *. utilization) in
    let dynamic =
      Float.of_int cores_on *. cap_per_core kind *. v *. v *. freq *. activity
    in
    let leak_scale = 1.0 +. (leak_temp_coeff *. (temperature -. 45.0)) in
    let leakage =
      Float.of_int cores_on *. leak_per_core kind *. Float.max 0.2 leak_scale
    in
    dynamic +. leakage +. uncore kind
  end

let cluster_power kind { cores_on; freq; utilization; temperature } =
  cluster_power_on kind ~cores_on ~freq ~utilization ~temperature

let max_power kind =
  cluster_power kind
    {
      cores_on = Dvfs.core_count;
      freq = Dvfs.f_max kind;
      utilization = 1.0;
      temperature = 85.0;
    }
