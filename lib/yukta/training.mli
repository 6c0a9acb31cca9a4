(** Training-run data collection (Section IV-C).

    One board run per training application, exciting every actuated
    signal across its allowed grid while recording what each layer's
    controller would see. The hardware layer's record pairs
    [[4 hw inputs; 3 placement signals]] with
    [[perf; power_big; power_little; temp]]; the software layer's pairs
    [[3 placement signals; 4 hw inputs]] with
    [[perf_little; perf_big; delta spare-compute]]. Records are what the
    hardware {e actually ran} (post-quantization, post-emergency) and what
    the sensors reported. *)

type records = {
  hw_u : Linalg.Vec.t array;
  hw_y : Linalg.Vec.t array;
  sw_u : Linalg.Vec.t array;
  sw_y : Linalg.Vec.t array;
}

val collect : ?epochs_per_workload:int -> unit -> records
(** Excitation runs on each of the six training applications
    ({!Board.Workload.training}), [epochs_per_workload] (default 220)
    epochs each, with fixed excitation seeds. *)
