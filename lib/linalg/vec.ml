type t = float array

let create n = Array.make n 0.0

let init = Array.init

let dim = Array.length

let copy = Array.copy

let of_list = Array.of_list

let ones n = Array.make n 1.0

let basis n i =
  if i < 0 || i >= n then invalid_arg "Vec.basis: index out of range";
  let v = create n in
  v.(i) <- 1.0;
  v

let check_same_dim name a b =
  if dim a <> dim b then invalid_arg (name ^ ": dimension mismatch")

let sub a b =
  check_same_dim "Vec.sub" a b;
  Array.mapi (fun i x -> x -. b.(i)) a

let scale s a = Array.map (fun x -> s *. x) a

let check_dst name dst a =
  if dim dst <> dim a then invalid_arg (name ^ ": dst dimension mismatch")

let add_into ~dst a b =
  check_same_dim "Vec.add_into" a b;
  check_dst "Vec.add_into" dst a;
  for i = 0 to dim a - 1 do
    Array.unsafe_set dst i (Array.unsafe_get a i +. Array.unsafe_get b i)
  done

let dot a b =
  check_same_dim "Vec.dot" a b;
  let acc = ref 0.0 in
  for i = 0 to dim a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

(* Scaled accumulation avoids overflow for huge entries and underflow for
   tiny ones, following the classic BLAS dnrm2 algorithm. *)
let norm2 a =
  let scale = ref 0.0 and ssq = ref 1.0 in
  Array.iter
    (fun x ->
      let ax = Float.abs x in
      if ax > 0.0 then
        if !scale < ax then begin
          ssq := 1.0 +. (!ssq *. (!scale /. ax) *. (!scale /. ax));
          scale := ax
        end
        else ssq := !ssq +. ((ax /. !scale) *. (ax /. !scale)))
    a;
  !scale *. sqrt !ssq

let norm_inf a = Array.fold_left (fun m x -> Float.max m (Float.abs x)) 0.0 a

let map = Array.map

let concat = Array.append

let slice v pos len = Array.sub v pos len
