(* A fixed-size domain pool. Workers pull thunks from one shared queue.
   Pool.map_reduce streams tasks through a bounded in-flight window and
   folds each result into the caller's accumulator in input order, so a
   batch of any length holds at most O(window) results at once and the
   fold is byte-identical at any job count. Each task's collector lines
   are captured on its domain and replayed as its result folds, so the
   trace stream is in input order too. Exceptions are carried as values
   and the earliest failing input re-raises in the caller. *)

type t = {
  jobs : int;
  mutex : Mutex.t;                      (* Guards queue + closed. *)
  work_available : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
  batch : Mutex.t;                      (* One batch at a time. *)
}

let rec worker_loop t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue && not t.closed do
    Condition.wait t.work_available t.mutex
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.mutex (* closed: exit *)
  else begin
    let task = Queue.pop t.queue in
    Mutex.unlock t.mutex;
    task ();
    worker_loop t
  end

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work_available = Condition.create ();
      queue = Queue.create ();
      closed = false;
      workers = [];
      batch = Mutex.create ();
    }
  in
  (* The calling domain participates in batches, so [jobs - 1] extra
     domains give [jobs]-way parallelism. *)
  t.workers <-
    List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.closed <- true;
  Condition.broadcast t.work_available;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* The caller drains the queue alongside the workers. *)
let help t =
  let rec go () =
    Mutex.lock t.mutex;
    if Queue.is_empty t.queue then Mutex.unlock t.mutex
    else begin
      let task = Queue.pop t.queue in
      Mutex.unlock t.mutex;
      task ();
      go ()
    end
  in
  go ()

(* In-flight window: results not yet folded live in a ring of this many
   slots, bounding memory independently of batch length while keeping
   every domain busy. *)
let window t = 4 * t.jobs

let map_reduce t ~map:f ~init ~reduce xs =
  if t.closed then invalid_arg "Pool.map_reduce: pool is shut down";
  match xs with
  | [] -> init
  | xs when t.jobs = 1 ->
      List.fold_left (fun acc x -> reduce acc (f x)) init xs
  | xs ->
      Mutex.lock t.batch;
      Fun.protect ~finally:(fun () -> Mutex.unlock t.batch) @@ fun () ->
      let arr = Array.of_list xs in
      let n = Array.length arr in
      let w = min n (window t) in
      (* ring.(i mod w) holds input i's settled result until the caller
         folds it; issuance is gated so in-flight inputs occupy distinct
         slots. settled counts finished tasks (guarded by slot_mutex). *)
      let ring = Array.make w None in
      let slot_mutex = Mutex.create () in
      let slot_ready = Condition.create () in
      let settled = ref 0 in
      let task i () =
        let r =
          match Obs.Collector.capture (fun () -> f arr.(i)) with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ())
        in
        Mutex.lock slot_mutex;
        ring.(i mod w) <- Some r;
        settled := !settled + 1;
        Condition.broadcast slot_ready;
        Mutex.unlock slot_mutex
      in
      let issued = ref 0 in
      let issue_until k =
        let k = min k n in
        if !issued < k then begin
          Mutex.lock t.mutex;
          while !issued < k do
            Queue.push (task !issued) t.queue;
            incr issued
          done;
          Condition.broadcast t.work_available;
          Mutex.unlock t.mutex
        end
      in
      let run_one_queued () =
        Mutex.lock t.mutex;
        if Queue.is_empty t.queue then begin
          Mutex.unlock t.mutex;
          false
        end
        else begin
          let task = Queue.pop t.queue in
          Mutex.unlock t.mutex;
          task ();
          true
        end
      in
      issue_until w;
      (* Whatever exits the fold (completion, a task failure, a raising
         [reduce]), no task of this batch may outlive it: run anything
         still queued, then wait out the in-flight stragglers. *)
      let cleanup () =
        help t;
        Mutex.lock slot_mutex;
        while !settled < !issued do
          Condition.wait slot_ready slot_mutex
        done;
        Mutex.unlock slot_mutex
      in
      Fun.protect ~finally:cleanup @@ fun () ->
      let acc = ref init in
      let cursor = ref 0 in
      let failure = ref None in
      while !cursor < n && !failure = None do
        let slot = !cursor mod w in
        Mutex.lock slot_mutex;
        let r = ring.(slot) in
        if r <> None then ring.(slot) <- None;
        Mutex.unlock slot_mutex;
        match r with
        | Some (Ok (v, lines)) ->
            (* Refill the freed slot before folding so domains stay busy
               while [reduce] runs in the caller. *)
            incr cursor;
            issue_until (!cursor + w);
            Obs.Collector.replay lines;
            acc := reduce !acc v
        | Some (Error e) ->
            (* Earliest input in fold order: stop issuing and re-raise. *)
            failure := Some e
        | None ->
            (* Not settled yet: help with queued work, or sleep until a
               worker publishes a slot. The cursor's task is always
               issued, so someone is running it. *)
            if not (run_one_queued ()) then begin
              Mutex.lock slot_mutex;
              while ring.(slot) = None do
                Condition.wait slot_ready slot_mutex
              done;
              Mutex.unlock slot_mutex
            end
      done;
      match !failure with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> !acc

let map t f xs =
  if t.closed then invalid_arg "Pool.map: pool is shut down";
  List.rev (map_reduce t ~map:f ~init:[] ~reduce:(fun acc v -> v :: acc) xs)
