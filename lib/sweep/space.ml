(* The typed design space: axis grids, mixed-radix point enumeration,
   and deterministic seeded sampling.

   Point ids are indices in a fixed mixed-radix order (delta varies
   fastest), so an id names the same design on every shard, job count
   and resumed run. Sampling derives all randomness from the caller's
   seed through Fleet.Seed (swap step i draws board i's stream 0),
   never from the global Random state. *)

type arrangement = Sw_over_hw | Hw_over_sw | Hw_only

let arrangement_name = function
  | Sw_over_hw -> "sw>hw"
  | Hw_over_sw -> "hw>sw"
  | Hw_only -> "hw-only"

let arrangement_of_name = function
  | "sw>hw" -> Some Sw_over_hw
  | "hw>sw" -> Some Hw_over_sw
  | "hw-only" -> Some Hw_only
  | _ -> None

type t = {
  deltas : float array;
  weights : float array;
  bounds : float array;
  epochs : float array;
  arrangements : arrangement array;
}

let default =
  {
    deltas = [| 0.4; 1.0; 2.5 |];
    weights = [| 0.5; 1.0; 2.0 |];
    bounds = [| 0.2; 0.3; 0.5 |];
    epochs = [| 0.25; 0.5; 1.0 |];
    arrangements = [| Sw_over_hw; Hw_over_sw; Hw_only |];
  }

let smoke =
  {
    deltas = [| 0.4; 1.0 |];
    weights = [| 1.0 |];
    bounds = [| 0.2; 0.5 |];
    epochs = [| 0.5 |];
    arrangements = [| Sw_over_hw; Hw_only |];
  }

let check_axis name a =
  if Array.length a = 0 then
    invalid_arg (Printf.sprintf "Space.make: empty %s axis" name);
  Array.iter
    (fun v ->
      if not (Float.is_finite v) || v <= 0.0 then
        invalid_arg
          (Printf.sprintf "Space.make: non-positive %s value %g" name v))
    a

let make ?(deltas = default.deltas) ?(weights = default.weights)
    ?(bounds = default.bounds) ?(epochs = default.epochs)
    ?(arrangements = default.arrangements) () =
  check_axis "delta" deltas;
  check_axis "weight" weights;
  check_axis "bound" bounds;
  check_axis "epoch" epochs;
  if Array.length arrangements = 0 then
    invalid_arg "Space.make: empty arrangement axis";
  { deltas; weights; bounds; epochs; arrangements }

let cardinality s =
  Array.length s.deltas * Array.length s.weights * Array.length s.bounds
  * Array.length s.epochs
  * Array.length s.arrangements

type point = {
  id : int;
  delta : float;
  weight : float;
  bound : float;
  epoch : float;
  arrangement : arrangement;
}

let point s id =
  if id < 0 || id >= cardinality s then
    invalid_arg
      (Printf.sprintf "Space.point: id %d outside the %d-point grid" id
         (cardinality s));
  let i = ref id in
  let next axis =
    let n = Array.length axis in
    let v = axis.(!i mod n) in
    i := !i / n;
    v
  in
  let delta = next s.deltas in
  let weight = next s.weights in
  let bound = next s.bounds in
  let epoch = next s.epochs in
  let arrangement = next s.arrangements in
  { id; delta; weight; bound; epoch; arrangement }

let sample s ~seed ~count =
  let n = cardinality s in
  if count <= 0 || count >= n then List.init n Fun.id
  else begin
    (* Partial Fisher-Yates: after [count] swap steps the prefix holds a
       uniform [count]-subset; sort it so shards stripe a stable order. *)
    let ids = Array.init n Fun.id in
    for i = 0 to count - 1 do
      let j =
        i + (Fleet.Seed.derive ~fleet_seed:seed ~board:i ~stream:0 mod (n - i))
      in
      let t = ids.(i) in
      ids.(i) <- ids.(j);
      ids.(j) <- t
    done;
    let chosen = Array.sub ids 0 count in
    Array.sort compare chosen;
    Array.to_list chosen
  end

let axis_json a = Obs.Json.List (Array.to_list (Array.map (fun v -> Obs.Json.Float v) a))

let to_json s =
  Obs.Json.Obj
    [
      ("delta", axis_json s.deltas);
      ("input_weight", axis_json s.weights);
      ("bound", axis_json s.bounds);
      ("epoch_s", axis_json s.epochs);
      ( "arrangement",
        Obs.Json.List
          (Array.to_list
             (Array.map
                (fun a -> Obs.Json.String (arrangement_name a))
                s.arrangements)) );
    ]

let point_fields p =
  [
    ("id", Obs.Json.Int p.id);
    ("delta", Obs.Json.Float p.delta);
    ("input_weight", Obs.Json.Float p.weight);
    ("bound", Obs.Json.Float p.bound);
    ("epoch_s", Obs.Json.Float p.epoch);
    ("arrangement", Obs.Json.String (arrangement_name p.arrangement));
  ]

let point_of_fields j =
  let open Obs.Json in
  let ( let* ) = Option.bind in
  let* id = Option.bind (member "id" j) to_int_opt in
  let* delta = Option.bind (member "delta" j) to_float_opt in
  let* weight = Option.bind (member "input_weight" j) to_float_opt in
  let* bound = Option.bind (member "bound" j) to_float_opt in
  let* epoch = Option.bind (member "epoch_s" j) to_float_opt in
  let* name = Option.bind (member "arrangement" j) to_string_opt in
  let* arrangement = arrangement_of_name name in
  Some { id; delta; weight; bound; epoch; arrangement }

let fingerprint s =
  let b = Buffer.create 256 in
  Array.iter (fun v -> Buffer.add_string b (Printf.sprintf "d%.17g;" v)) s.deltas;
  Array.iter (fun v -> Buffer.add_string b (Printf.sprintf "w%.17g;" v)) s.weights;
  Array.iter (fun v -> Buffer.add_string b (Printf.sprintf "b%.17g;" v)) s.bounds;
  Array.iter (fun v -> Buffer.add_string b (Printf.sprintf "e%.17g;" v)) s.epochs;
  Array.iter
    (fun a -> Buffer.add_string b (arrangement_name a ^ ";"))
    s.arrangements;
  String.sub (Digest.to_hex (Digest.string (Buffer.contents b))) 0 16
