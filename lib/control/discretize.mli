(** Conversions between continuous- and discrete-time systems.

    The bilinear (Tustin) transform preserves stability and the
    H-infinity norm and is the bridge used by the discrete H-infinity
    synthesis path. *)

val c2d_tustin : Ss.t -> float -> Ss.t
(** Bilinear transform [s = (2/T)(z-1)/(z+1)].
    @raise Linalg.Lu.Singular if the plant has a pole at [2/T]. *)

val d2c_tustin : Ss.t -> Ss.t
(** Inverse bilinear transform [z = (1 + sT/2)/(1 - sT/2)].
    @raise Linalg.Lu.Singular if the plant has a pole at [z = -1]. *)
