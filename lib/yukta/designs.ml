(* Memoized controller designs.

   Training-data collection and mu-synthesis are the expensive, offline
   part of the flow (they happen once per platform in the paper). The
   default records and designs are computed lazily, shared by every
   experiment, and additionally cached on disk (content-addressed by the
   training records and the layer specification) so repeated benchmark
   runs skip re-synthesis. Set YUKTA_NO_CACHE=1 to disable the disk
   cache.

   Domain safety: the lazy memos and the disk cache are process-global,
   and OCaml 5 raises if two domains force one suspension concurrently,
   so every public entry point takes [memo_mutex]. The mutex is not
   reentrant; internal code below assumes the lock is already held and
   must never call a public (locking) entry point. Parallel drivers
   should still force everything once before fan-out ([prepare], or
   building the stacks they will run) so workers hit warmed memos
   instead of serializing on the lock. *)

let memo_mutex = Mutex.create ()

let with_memo_lock f =
  Mutex.lock memo_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock memo_mutex) f

let records = lazy (Training.collect ())

(* Lock held from here down. *)

let get_records_unlocked () = Lazy.force records

(* ------------------------------------------------------------------ *)
(* Disk cache                                                          *)
(* ------------------------------------------------------------------ *)

let cache_dir = ".yukta_cache"

let cache_enabled () = Sys.getenv_opt "YUKTA_NO_CACHE" = None

let digest_of_key key = Digest.to_hex (Digest.string key)

let cache_path key = Filename.concat cache_dir (digest_of_key key ^ ".bin")

let cache_load : type a. string -> a option =
 fun key ->
  if not (cache_enabled ()) then None
  else begin
    let path = cache_path key in
    if Sys.file_exists path then begin
      let ic = open_in_bin path in
      let v =
        match Marshal.from_channel ic with
        | v -> Some (v : a)
        | exception _ -> None
      in
      close_in ic;
      v
    end
    else None
  end

(* Alongside every [.bin] sits a one-line [.meta] sidecar naming what
   the digest holds — the cache keys themselves embed marshalled
   fingerprints, so the sidecar is what `yukta_cli cache` lists.

   Writes are write-to-temp + rename: the memo mutex serializes domains
   within one process, but nothing serializes *processes* (two sweep
   shards cache-missing the same design concurrently), and a reader
   must never observe a half-written blob. A unique temp name per
   process in the same directory plus [Sys.rename] (atomic on POSIX)
   makes the visible file always complete; colliding renames of the
   same key are idempotent because both writers marshal the same value.
   DESIGN.md section 9 states the rule. *)
let write_atomically path write =
  let tmp =
    Printf.sprintf "%s.tmp.%d" path (Unix.getpid ())
  in
  let oc = open_out_bin tmp in
  (match write oc with
  | () -> close_out oc
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  match Sys.rename tmp path with
  | () -> ()
  | exception Sys_error _ ->
    (* A concurrent writer won the rename on a platform where it is not
       a silent replace; its bytes are equivalent, so just clean up. *)
    (try Sys.remove tmp with Sys_error _ -> ())

let cache_store ~label key v =
  if cache_enabled () then begin
    (* Racing [mkdir] from two processes: losing the race is success. *)
    if not (Sys.file_exists cache_dir) then (
      try Sys.mkdir cache_dir 0o755
      with Sys_error _ when Sys.file_exists cache_dir -> ());
    write_atomically (cache_path key) (fun oc -> Marshal.to_channel oc v []);
    write_atomically
      (Filename.concat cache_dir (digest_of_key key ^ ".meta"))
      (fun oc -> output_string oc (label ^ "\n"))
  end

(* The value cached under [key], else [compute ()], stored under [key]
   with its [.meta] [label]. *)
let cached ~label key compute =
  match cache_load key with
  | Some v -> v
  | None ->
    let v = compute () in
    cache_store ~label key v;
    v

(* The cache key covers everything that determines a design: the training
   records, the layer specs whose signals it reads, and a schema version
   to bump when the design pipeline itself changes — or the layout of a
   cached value: entries are raw [Marshal] blobs, so loading one written
   with another [Controller.t] layout is not type-safe (version 3: the
   controller carries its normalization arrays). *)
let schema_version = 3

let spec_fingerprint (spec : Design.spec) =
  Marshal.to_string
    ( spec.Design.layer,
      Array.map
        (fun (i : Signal.input) ->
          ( i.Signal.name,
            i.Signal.channel.Control.Quantize.minimum,
            i.Signal.channel.Control.Quantize.maximum,
            i.Signal.channel.Control.Quantize.step,
            i.Signal.weight ))
        spec.Design.inputs,
      Array.map
        (fun (o : Signal.output) ->
          (o.Signal.name, o.Signal.lo, o.Signal.hi, o.Signal.bound_fraction,
           o.Signal.integral))
        spec.Design.outputs,
      Array.map
        (fun (e : Signal.external_signal) ->
          (e.name, e.channel.minimum, e.channel.maximum))
        spec.Design.externals,
      spec.Design.uncertainty,
      spec.Design.period )
    []

let records_fingerprint r =
  Marshal.to_string
    ( Array.length r.Training.hw_u,
      (if Array.length r.Training.hw_u > 0 then r.Training.hw_u.(7) else [||]),
      (if Array.length r.Training.hw_y > 0 then r.Training.hw_y.(7) else [||]),
      (if Array.length r.Training.sw_y > 0 then r.Training.sw_y.(7) else [||]) )
    []

let design_key kind specs =
  Printf.sprintf "design-v%d-%s-%s-%s" schema_version kind
    (String.concat "" (List.map spec_fingerprint specs))
    (records_fingerprint (get_records_unlocked ()))

let cached_design kind spec (compute : unit -> Design.synthesis) =
  cached
    ~label:(Printf.sprintf "ssv %s design (%s)" kind spec.Design.layer)
    (design_key kind [ spec ]) compute

let design_hw_unlocked spec =
  cached_design "hw" spec (fun () ->
      let r = get_records_unlocked () in
      Design.design spec ~u:r.Training.hw_u ~y:r.Training.hw_y)

let design_sw_unlocked spec =
  cached_design "sw" spec (fun () ->
      let r = get_records_unlocked () in
      Design.design spec ~u:r.Training.sw_u ~y:r.Training.sw_y)

let hw_default = lazy (design_hw_unlocked (Hw_layer.spec ()))

let sw_default = lazy (design_sw_unlocked (Sw_layer.spec ()))

(* The default hardware spec synthesized with Delta_in collapsed (the
   ablation's quantization-unaware variant); its own key kind keeps it
   apart from the quantization-aware design of the same spec. *)
let hw_no_quant_default =
  lazy
    (let spec = Hw_layer.spec () in
     cached_design "hw-noquant" spec (fun () ->
         let r = get_records_unlocked () in
         let model = Design.identify spec ~u:r.Training.hw_u ~y:r.Training.hw_y in
         Design.synthesize ~ignore_quantization:true spec ~model))

(* An LQG controller, keyed on the specs whose inputs and outputs it
   reads. *)
let cached_controller kind specs
    (controller : Training.records -> Controller.t) =
  cached
    ~label:(Printf.sprintf "lqg %s controller" kind)
    (design_key ("lqg-" ^ kind) specs)
    (fun () -> controller (get_records_unlocked ()))

let lqg_hw_default =
  lazy (cached_controller "hw" [ Hw_layer.spec () ] Lqg_layer.hw_controller)

let lqg_sw_default =
  lazy (cached_controller "sw" [ Sw_layer.spec () ] Lqg_layer.sw_controller)

let lqg_mono_default =
  lazy
    (cached_controller "mono"
       [ Hw_layer.spec (); Sw_layer.spec () ]
       Lqg_layer.monolithic_controller)

(* The rack layer's feedback design: the budget-tracking loop is a
   scalar integrator plant (total fleet power responds within one rack
   epoch to a cap change), so its LQR reduces to one DARE-derived gain.
   Cached like the layer designs — the key is the plant/weights alone,
   no training records needed. *)
let rack_q = 1.0

let rack_r = 4.0

let rack_gain_unlocked () =
  cached ~label:"rack feedback gain"
    (Printf.sprintf "rack-v%d-q%.17g-r%.17g" schema_version rack_q rack_r)
    (fun () ->
      let m x = Linalg.Mat.of_lists [ [ x ] ] in
      let a = m 1.0 and b = m 1.0 in
      let x = Control.Dare.solve ~a ~b ~q:(m rack_q) ~r:(m rack_r) in
      Linalg.Mat.get (Control.Dare.gain ~a ~b ~r:(m rack_r) x) 0 0)

let rack_default = lazy (rack_gain_unlocked ())

(* ------------------------------------------------------------------ *)
(* Public (locking) entry points                                       *)
(* ------------------------------------------------------------------ *)

let get_records () = with_memo_lock get_records_unlocked

let design_hw_with spec = with_memo_lock (fun () -> design_hw_unlocked spec)

let design_sw_with spec = with_memo_lock (fun () -> design_sw_unlocked spec)

let hw () = with_memo_lock (fun () -> Lazy.force hw_default)

let sw () = with_memo_lock (fun () -> Lazy.force sw_default)

let hw_no_quant () = with_memo_lock (fun () -> Lazy.force hw_no_quant_default)

let lqg_hw () = with_memo_lock (fun () -> Lazy.force lqg_hw_default)

let lqg_sw () = with_memo_lock (fun () -> Lazy.force lqg_sw_default)

let lqg_monolithic () = with_memo_lock (fun () -> Lazy.force lqg_mono_default)

let rack_gain () = with_memo_lock (fun () -> Lazy.force rack_default)

let prepare () =
  with_memo_lock (fun () ->
      ignore (get_records_unlocked ());
      ignore (Lazy.force hw_default);
      ignore (Lazy.force sw_default);
      ignore (Lazy.force lqg_hw_default);
      ignore (Lazy.force lqg_sw_default);
      ignore (Lazy.force lqg_mono_default);
      ignore (Lazy.force rack_default))
