(** The mergeable statistics core behind {!Health} and fleet-scale
    aggregation.

    Unlike {!Metrics} — a process-global registry of named cells — these
    are plain per-owner accumulators with a [merge] operation, so
    per-board statistics computed in parallel campaign cells can be
    reduced into fleet aggregates without materializing traces. Merging
    is deterministic: folding cells in a fixed order produces the same
    bits at any job count, because each cell's accumulator depends only
    on its own (simulated, deterministic) stream.

    Nothing here takes a lock; an accumulator belongs to one owner at a
    time (one stack, one reducer). *)

(** {1 Welford mean/variance} *)

module Welford : sig
  (** Numerically stable streaming mean/variance (Welford's online
      algorithm), merged pairwise with the Chan et al. update. *)

  type t

  val create : unit -> t

  val add : t -> float -> unit

  val mean : t -> float
  (** [nan] when empty. *)

  val max_v : t -> float

  val merge_into : into:t -> t -> unit
  (** [merge_into ~into src] folds [src] into [into]; [src] is left
      untouched. Merging split streams agrees with the single-stream
      result up to floating-point reassociation (the qcheck property in
      the test suite pins the tolerance). *)

  val to_json : t -> Json.t
  (** [{"count":...,"mean":...,"std":...,"min":...,"max":...}], [std]
      the population standard deviation (divides by [count]), with zeros
      (not [nan]/[null]) for the empty accumulator, so documents
      embedding it stay grep-ably finite. *)
end

(** {1 Mergeable fixed-bucket histograms} *)

module Hist : sig
  (** A fixed-bucket counting histogram whose [merge] is {e exact}
      (integer counts add), unlike any mean-based summary. Bucket
      bounds are strictly increasing upper bounds; values above the
      last bound land in an overflow slot. {!Metrics} histograms keep
      their counts in one. *)

  type t

  val create : buckets:float array -> t
  (** @raise Invalid_argument on an empty or non-increasing bound
      array. The bound array is copied. *)

  val observe : t -> float -> unit

  val count : t -> int
  (** Total observations. *)

  val percentile : t -> lo:float -> hi:float -> float -> float
  (** [percentile h ~lo ~hi q] for [q] in [0, 1]: the value of rank
      [q * count], linearly interpolated inside the bucket holding it.
      [lo] and [hi] are the observed minimum and maximum, which the
      histogram does not keep: they close the first and the overflow
      bucket and clamp every other bucket's edges, so a single-valued
      histogram returns that value. [nan] when empty. *)

  val clear : t -> unit
  (** Zero every count; the bucket layout stays. *)

  val merge_into : into:t -> t -> unit
  (** Exact: adds per-bucket counts.
      @raise Invalid_argument when the bucket layouts differ. *)

  val to_json : t -> Json.t
  (** [{"buckets":[...],"counts":[...],"count":N}] — [counts] carries
      the overflow slot last. *)
end
