(* A single background computation on its own domain, with non-blocking
   completion polling. Pool is built for batches that block the caller;
   a serving loop needs the opposite — fire one re-synthesis off, keep
   stepping epochs, and collect the result the epoch it lands. *)

type 'a t = {
  result : ('a, exn) result option Atomic.t;
  domain : unit Domain.t;
  mutable joined : bool;
}

let spawn f =
  let result = Atomic.make None in
  let domain =
    Domain.spawn (fun () ->
        let r = try Ok (f ()) with exn -> Error exn in
        Atomic.set result (Some r))
  in
  { result; domain; joined = false }

let finished t = Atomic.get t.result <> None

let await t =
  if not t.joined then begin
    Domain.join t.domain;
    t.joined <- true
  end;
  match Atomic.get t.result with
  | Some (Ok v) -> v
  | Some (Error exn) -> raise exn
  | None -> assert false (* join implies the worker stored its result *)
