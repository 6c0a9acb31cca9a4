(** One background computation on its own domain.

    {!Pool} runs batches that block the caller until every job folds;
    this is the complementary shape a long-lived serving loop needs: a
    single computation (an online controller re-synthesis) fired off to
    a fresh domain, polled for completion between epochs without ever
    blocking, and collected the epoch it lands.

    Tasks are one-shot: spawn, poll with {!finished}, then {!await}.
    Every spawned task should eventually be awaited so the domain is
    joined — {!await} after {!finished} never blocks. *)

type 'a t

val spawn : (unit -> 'a) -> 'a t
(** Run [f] on a fresh domain. Exceptions are captured and re-raised by
    {!await} in the caller. *)

val finished : 'a t -> bool
(** Non-blocking: has the computation completed (successfully or not)? *)

val await : 'a t -> 'a
(** Join the domain (blocking if still running) and return the result,
    re-raising the task's exception if it failed. Idempotent. *)
