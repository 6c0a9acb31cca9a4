(** The online Pareto frontier the reduce phase folds sweep results
    into.

    Three objectives, all minimized:

    - {e mu} — the certified SSV peak of the point's synthesized
      designs (worst layer): the robustness margin, where [mu <= 1]
      certifies the requested guardband/bounds combination;
    - {e exd} — energy-delay product of the probe run: performance;
    - {e macs} — multiply-accumulates per controller invocation summed
      over the point's synthesized controllers: the {e deterministic}
      synthesis-cost objective. Synthesis wall time is recorded
      alongside results but deliberately kept out of dominance and out
      of the frontier artifact — it depends on cache state and machine,
      and the frontier must be byte-identical across job counts, shards
      and reruns (DESIGN.md section 14).

    A member is kept iff no other evaluated point is at least as good on
    every objective and strictly better on one. The surviving set is the
    set of maximal elements of the evaluated population, which is
    independent of insertion order — the property that makes the reduce
    phase streamable and shard merging exact (the frontier of a union is
    the frontier of the union of per-shard frontiers). *)

type entry = {
  point : Space.point;
  mu : float;    (** Certified SSV peak, worst synthesized layer. *)
  exd : float;   (** E x D of the probe run, J.s. *)
  macs : int;    (** Multiply-accumulates per invocation, all layers. *)
}

type t
(** A mutable online frontier. Not domain-safe: insert from one domain
    (the reduce phase runs in the calling domain only). *)

val create : unit -> t

val insert : t -> entry -> bool
(** Offer an entry. Returns [false] (and changes nothing) when an
    existing member dominates it; otherwise evicts every member the
    entry dominates, adds it, and returns [true]. Entries with equal
    objectives all stay (neither strictly dominates). *)

val size : t -> int

val members : t -> entry list
(** The current frontier, sorted by point id — the canonical order of
    the artifact, independent of insertion order. *)

val entry_json : entry -> Obs.Json.t
(** One frontier member as a JSON object: the point's axis fields plus
    [mu_peak], [exd_js] and [synth_macs]. *)

val entry_of_json : Obs.Json.t -> entry option
(** Inverse of {!entry_json}; [None] on a malformed object. *)
