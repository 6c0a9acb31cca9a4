(** The board's two actuation surfaces, each stated once (Figure 3,
    Tables II and III).

    The hardware layer actuates the {e configuration} (big and little
    core counts, the two cluster frequencies); the software layer the
    {e placement} (threads on the big cluster, threads per non-idle core
    in each cluster). A table is its owner's inputs and, with the same
    discrete values, the other layer's external signals. Both layers,
    the training runs and the online estimator read their vectors
    through the encodings here. *)

val config : unit -> Signal.external_signal array
(** [big_cores; little_cores; freq_big; freq_little]. *)

val placement : unit -> Signal.external_signal array
(** [threads_big; tpc_big; tpc_little]. *)

val freq_big : Signal.external_signal
(** The [freq_big] entry of {!config}: the application layer's one view
    of the layers below (Section III-D). *)

val inputs : weight:float -> Signal.external_signal array -> Signal.input array
(** A table as its owner's inputs, each with [weight]. *)

val vec_of_config : Board.Xu3.config -> Linalg.Vec.t
val config_of_vec : Linalg.Vec.t -> Board.Xu3.config
(** Reads entries 0-3 of a (quantized) command; core counts round. *)

val vec_of_placement : Board.Xu3.placement -> Linalg.Vec.t
val placement_of_vec : Linalg.Vec.t -> Board.Xu3.placement
(** Reads entries 0-2 of a (quantized) command; [threads_big] rounds. *)
