(** The simulated ODROID XU3 board: the simulator {!Xu3}, the workload
    models it runs, and the device models of the 10 ms tick under their
    own names. The device models live inside {!Xu3}, so that the tick's
    calls into them are inlined within one compilation unit; the aliases
    below keep their [Board.*] paths. *)

module Xu3 = Xu3
module Workload = Workload
module Dvfs = Xu3.Dvfs
module Perf = Xu3.Perf
module Power = Xu3.Power
module Thermal = Xu3.Thermal
module Sensors = Xu3.Sensors
module Emergency = Xu3.Emergency
