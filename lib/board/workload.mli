(** Synthetic workload models.

    The paper evaluates 8-threaded PARSEC programs, 8 copies of SPEC
    CPU2006 programs, and 4+4 heterogeneous mixes. We cannot ship those
    binaries, so each application is modelled by the properties that the
    controllers actually react to: a sequence of phases, each with a thread
    count, an instruction budget, a memory intensity (how much performance
    saturates with frequency) and an ILP factor (peak IPC scale). Profiles
    are chosen to span the same qualitative space: compute-bound vs
    memory-bound, serial+parallel structure, abrupt thread-count changes.

    A {e job} is an application instance making progress on the board; the
    board runs a list of jobs (one for homogeneous workloads, two for the
    paper's mixes). *)

type phase = {
  threads : int;         (** Active threads while this phase runs. *)
  ginsts : float;        (** Instructions to retire in the phase, x10^9. *)
  mem_intensity : float; (** 0 = compute bound, 1 = fully memory bound. *)
  ipc_scale : float;     (** Multiplies the core's peak IPC. *)
  sync_factor : float;   (** Fraction of barrier-synchronized work: 0 for
                             independent copies (SPEC rate), near 1 for
                             lockstep data-parallel phases. Stragglers on
                             slow cores gate this fraction of the
                             throughput. *)
}

type t = { name : string; phases : phase list }

val validate : t -> unit
(** @raise Invalid_argument on empty phases or non-positive budgets. *)

val total_ginsts : t -> float

val max_threads : t -> int

val scale : ?threads:int -> ?ginsts:float -> t -> t
(** Scale every phase's thread count (capped) and instruction budget;
    used to build 4-thread halves for heterogeneous mixes. *)

(** {1 The paper's evaluation suite} *)

val parsec : t list
(** blackscholes, bodytrack, facesim, fluidanimate, raytrace, x264,
    canneal, streamcluster — 8 threads, native-input scale. *)

val spec : t list
(** h264ref, mcf, omnetpp, gamess, gromacs, dealII — 8 copies, train
    inputs. *)

val evaluation_suite : t list
(** [spec @ parsec] in the order of Figure 9. *)

val training : t list
(** swaptions, vips, astar, perlbench, milc, namd — the disjoint training
    set used for system identification. *)

val by_name : string -> t
(** Look up any workload above by name. @raise Not_found otherwise. *)

val synthetic : ?seed:int -> ?ginsts:float -> unit -> t
(** Random three-phase workload: per-phase thread counts, memory
    intensities, ILP factors and sync fractions drawn from the ranges the
    real suite spans. Deterministic for a given [seed]. The fleet
    simulator draws one per board; the robustness property tests draw
    them too. *)

val mixes : (string * t list) list
(** The Figure 14 heterogeneous workloads: blmc, stga, blst, mcga — each a
    pair of 4-thread jobs run concurrently. *)

val resolve : string -> t list option
(** The jobs an app name stands for, as the CLI and served sessions take
    it: a mix's pair, else the single workload {!by_name}; [None] for a
    name outside {!app_names}. *)

val app_names : string list
(** Every name {!resolve} accepts: the evaluation suite, the training
    set, then the mixes. *)
