type t = { rows : int; cols : int; data : float array }

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Mat.create: negative dimension";
  { rows; cols; data = Array.make (rows * cols) 0.0 }

let init rows cols f =
  let a = create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      a.data.((i * cols) + j) <- f i j
    done
  done;
  a

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let diag v =
  let n = Vec.dim v in
  init n n (fun i j -> if i = j then v.(i) else 0.0)

let scalar n s = init n n (fun i j -> if i = j then s else 0.0)

let of_arrays rows_arr =
  let rows = Array.length rows_arr in
  if rows = 0 then create 0 0
  else begin
    let cols = Array.length rows_arr.(0) in
    Array.iter
      (fun r ->
        if Array.length r <> cols then
          invalid_arg "Mat.of_arrays: ragged rows")
      rows_arr;
    init rows cols (fun i j -> rows_arr.(i).(j))
  end

let of_lists ll = of_arrays (Array.of_list (List.map Array.of_list ll))

let of_vec_col v = init (Vec.dim v) 1 (fun i _ -> v.(i))

let random ?(seed = 42) rows cols =
  let st = Random.State.make [| seed; rows; cols |] in
  init rows cols (fun _ _ -> Random.State.float st 2.0 -. 1.0)

let get a i j = a.data.((i * a.cols) + j)

let set a i j x = a.data.((i * a.cols) + j) <- x

let dims a = (a.rows, a.cols)

let row a i = Array.sub a.data (i * a.cols) a.cols

let col a j = Array.init a.rows (fun i -> get a i j)

let diagonal a = Array.init (min a.rows a.cols) (fun i -> get a i i)

let copy a = { a with data = Array.copy a.data }

let set_row a i v =
  if Vec.dim v <> a.cols then invalid_arg "Mat.set_row: dimension mismatch";
  Array.blit v 0 a.data (i * a.cols) a.cols

let set_col a j v =
  if Vec.dim v <> a.rows then invalid_arg "Mat.set_col: dimension mismatch";
  for i = 0 to a.rows - 1 do
    set a i j v.(i)
  done

let sub_matrix a i j m n =
  if i < 0 || j < 0 || i + m > a.rows || j + n > a.cols then
    invalid_arg "Mat.sub_matrix: block out of range";
  init m n (fun r c -> get a (i + r) (j + c))

let set_block a i j b =
  if i + b.rows > a.rows || j + b.cols > a.cols then
    invalid_arg "Mat.set_block: block out of range";
  for r = 0 to b.rows - 1 do
    for c = 0 to b.cols - 1 do
      set a (i + r) (j + c) (get b r c)
    done
  done

let transpose a = init a.cols a.rows (fun i j -> get a j i)

let hcat a b =
  if a.rows <> b.rows then invalid_arg "Mat.hcat: row mismatch";
  let r = create a.rows (a.cols + b.cols) in
  set_block r 0 0 a;
  set_block r 0 a.cols b;
  r

let vcat a b =
  if a.cols <> b.cols then invalid_arg "Mat.vcat: column mismatch";
  let r = create (a.rows + b.rows) a.cols in
  set_block r 0 0 a;
  set_block r a.rows 0 b;
  r

let blocks grid =
  match grid with
  | [] -> create 0 0
  | first_row :: _ ->
    let rows = List.fold_left (fun acc r ->
        match r with
        | [] -> invalid_arg "Mat.blocks: empty block row"
        | b :: _ -> acc + b.rows)
        0 grid
    in
    let cols = List.fold_left (fun acc b -> acc + b.cols) 0 first_row in
    let result = create rows cols in
    let roff = ref 0 in
    List.iter
      (fun block_row ->
        let coff = ref 0 in
        let height =
          match block_row with b :: _ -> b.rows | [] -> assert false
        in
        List.iter
          (fun b ->
            if b.rows <> height then
              invalid_arg "Mat.blocks: inconsistent block heights";
            set_block result !roff !coff b;
            coff := !coff + b.cols)
          block_row;
        if !coff <> cols then
          invalid_arg "Mat.blocks: inconsistent block widths";
        roff := !roff + height)
      grid;
    result

let check_same name a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg (name ^ ": dimension mismatch")

let add a b =
  check_same "Mat.add" a b;
  { a with data = Array.mapi (fun k x -> x +. b.data.(k)) a.data }

let sub a b =
  check_same "Mat.sub" a b;
  { a with data = Array.mapi (fun k x -> x -. b.data.(k)) a.data }

let scale s a = { a with data = Array.map (fun x -> s *. x) a.data }

let neg a = scale (-1.0) a

(* Shared matrix-multiply kernel: writes a*b over [rd], where [a] is
   m x k and [b] is k x n, both row-major. Register-tiled 2x4: the hot
   loop keeps eight accumulators live across the whole k dimension, so
   each b element fetched serves two rows and each a element four
   columns (the refs never escape, so ocamlopt unboxes them into
   registers). Tails fall back to 2x1 / 1x4 / 1x1 strips.

   Every destination element is one independent k-ascending sum starting
   from 0.0, identical in value across tile shapes; [mul] and [mul_into]
   both call this kernel, so converting a hot loop between them keeps
   bit-identical results. *)
let gemm_kernel ~m ~k ~n ad bd rd =
  let i = ref 0 in
  while !i + 1 < m do
    let i0 = !i in
    let a0 = i0 * k and a1 = (i0 + 1) * k in
    let r0 = i0 * n and r1 = (i0 + 1) * n in
    let j = ref 0 in
    while !j + 3 < n do
      let j0 = !j in
      let acc00 = ref 0.0 and acc01 = ref 0.0
      and acc02 = ref 0.0 and acc03 = ref 0.0
      and acc10 = ref 0.0 and acc11 = ref 0.0
      and acc12 = ref 0.0 and acc13 = ref 0.0 in
      for l = 0 to k - 1 do
        let av0 = Array.unsafe_get ad (a0 + l)
        and av1 = Array.unsafe_get ad (a1 + l) in
        let boff = (l * n) + j0 in
        let b0 = Array.unsafe_get bd boff
        and b1 = Array.unsafe_get bd (boff + 1)
        and b2 = Array.unsafe_get bd (boff + 2)
        and b3 = Array.unsafe_get bd (boff + 3) in
        acc00 := !acc00 +. (av0 *. b0);
        acc01 := !acc01 +. (av0 *. b1);
        acc02 := !acc02 +. (av0 *. b2);
        acc03 := !acc03 +. (av0 *. b3);
        acc10 := !acc10 +. (av1 *. b0);
        acc11 := !acc11 +. (av1 *. b1);
        acc12 := !acc12 +. (av1 *. b2);
        acc13 := !acc13 +. (av1 *. b3)
      done;
      Array.unsafe_set rd (r0 + j0) !acc00;
      Array.unsafe_set rd (r0 + j0 + 1) !acc01;
      Array.unsafe_set rd (r0 + j0 + 2) !acc02;
      Array.unsafe_set rd (r0 + j0 + 3) !acc03;
      Array.unsafe_set rd (r1 + j0) !acc10;
      Array.unsafe_set rd (r1 + j0 + 1) !acc11;
      Array.unsafe_set rd (r1 + j0 + 2) !acc12;
      Array.unsafe_set rd (r1 + j0 + 3) !acc13;
      j := j0 + 4
    done;
    while !j < n do
      let j0 = !j in
      let acc0 = ref 0.0 and acc1 = ref 0.0 in
      for l = 0 to k - 1 do
        let bv = Array.unsafe_get bd ((l * n) + j0) in
        acc0 := !acc0 +. (Array.unsafe_get ad (a0 + l) *. bv);
        acc1 := !acc1 +. (Array.unsafe_get ad (a1 + l) *. bv)
      done;
      Array.unsafe_set rd (r0 + j0) !acc0;
      Array.unsafe_set rd (r1 + j0) !acc1;
      j := j0 + 1
    done;
    i := i0 + 2
  done;
  if !i < m then begin
    let a0 = !i * k and r0 = !i * n in
    let j = ref 0 in
    while !j + 3 < n do
      let j0 = !j in
      let acc0 = ref 0.0 and acc1 = ref 0.0
      and acc2 = ref 0.0 and acc3 = ref 0.0 in
      for l = 0 to k - 1 do
        let av = Array.unsafe_get ad (a0 + l) in
        let boff = (l * n) + j0 in
        acc0 := !acc0 +. (av *. Array.unsafe_get bd boff);
        acc1 := !acc1 +. (av *. Array.unsafe_get bd (boff + 1));
        acc2 := !acc2 +. (av *. Array.unsafe_get bd (boff + 2));
        acc3 := !acc3 +. (av *. Array.unsafe_get bd (boff + 3))
      done;
      Array.unsafe_set rd (r0 + j0) !acc0;
      Array.unsafe_set rd (r0 + j0 + 1) !acc1;
      Array.unsafe_set rd (r0 + j0 + 2) !acc2;
      Array.unsafe_set rd (r0 + j0 + 3) !acc3;
      j := j0 + 4
    done;
    while !j < n do
      let j0 = !j in
      let acc = ref 0.0 in
      for l = 0 to k - 1 do
        acc :=
          !acc
          +. (Array.unsafe_get ad (a0 + l)
             *. Array.unsafe_get bd ((l * n) + j0))
      done;
      Array.unsafe_set rd (r0 + j0) !acc;
      j := j0 + 1
    done
  end

let mul a b =
  if a.cols <> b.rows then invalid_arg "Mat.mul: dimension mismatch";
  let r = create a.rows b.cols in
  gemm_kernel ~m:a.rows ~k:a.cols ~n:b.cols a.data b.data r.data;
  r

let mul_vec a v =
  if a.cols <> Vec.dim v then invalid_arg "Mat.mul_vec: dimension mismatch";
  let ad = a.data in
  Array.init a.rows (fun i ->
      let acc = ref 0.0 in
      let off = i * a.cols in
      for j = 0 to a.cols - 1 do
        acc := !acc +. (Array.unsafe_get ad (off + j) *. Array.unsafe_get v j)
      done;
      !acc)

let mul3 a b c =
  (* Choose association order by flop count. *)
  let cost_left = (a.rows * a.cols * b.cols) + (a.rows * b.cols * c.cols) in
  let cost_right = (b.rows * b.cols * c.cols) + (a.rows * a.cols * c.cols) in
  if cost_left <= cost_right then mul (mul a b) c else mul a (mul b c)

(* ------------------------------------------------------------------ *)
(* In-place / destination-passing kernels                              *)
(* ------------------------------------------------------------------ *)

(* Every [_into] kernel computes element-for-element the same float
   operations, in the same order, as its allocating counterpart: callers
   converting hot loops to these kernels keep bit-identical results.
   Bounds are checked once at entry; inner loops use unsafe accesses. *)

let check_dst name ~rows ~cols dst =
  if dst.rows <> rows || dst.cols <> cols then
    invalid_arg (name ^ ": dst dimension mismatch")

(* Zero-length storage is exempt: OCaml interns the empty array, so two
   independent 0 x n matrices share it physically — and there is nothing
   to corrupt. *)
let check_not_aliased name dst srcs =
  if
    Array.length dst.data > 0
    && List.exists (fun s -> s.data == dst.data) srcs
  then invalid_arg (name ^ ": dst aliases a source matrix")

(* Elementwise kernels tolerate [dst] aliasing a source: every entry is
   read before it is written. *)

let add_into ~dst a b =
  check_same "Mat.add_into" a b;
  check_dst "Mat.add_into" ~rows:a.rows ~cols:a.cols dst;
  let ad = a.data and bd = b.data and rd = dst.data in
  for k = 0 to Array.length ad - 1 do
    Array.unsafe_set rd k
      (Array.unsafe_get ad k +. Array.unsafe_get bd k)
  done

let sub_into ~dst a b =
  check_same "Mat.sub_into" a b;
  check_dst "Mat.sub_into" ~rows:a.rows ~cols:a.cols dst;
  let ad = a.data and bd = b.data and rd = dst.data in
  for k = 0 to Array.length ad - 1 do
    Array.unsafe_set rd k
      (Array.unsafe_get ad k -. Array.unsafe_get bd k)
  done

let scale_into ~dst s a =
  check_dst "Mat.scale_into" ~rows:a.rows ~cols:a.cols dst;
  let ad = a.data and rd = dst.data in
  for k = 0 to Array.length ad - 1 do
    Array.unsafe_set rd k (s *. Array.unsafe_get ad k)
  done

let transpose_into ~dst a =
  check_dst "Mat.transpose_into" ~rows:a.cols ~cols:a.rows dst;
  check_not_aliased "Mat.transpose_into" dst [ a ];
  let ad = a.data and rd = dst.data in
  for i = 0 to a.cols - 1 do
    let roff = i * a.rows in
    for j = 0 to a.rows - 1 do
      Array.unsafe_set rd (roff + j) (Array.unsafe_get ad ((j * a.cols) + i))
    done
  done

let symmetrize_into ~dst a =
  if a.rows <> a.cols then invalid_arg "Mat.symmetrize_into: non-square";
  check_dst "Mat.symmetrize_into" ~rows:a.rows ~cols:a.cols dst;
  check_not_aliased "Mat.symmetrize_into" dst [ a ];
  let n = a.rows in
  let ad = a.data and rd = dst.data in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Array.unsafe_set rd ((i * n) + j)
        (0.5
        *. (Array.unsafe_get ad ((i * n) + j)
           +. Array.unsafe_get ad ((j * n) + i)))
    done
  done

let mul_into ~dst a b =
  if a.cols <> b.rows then invalid_arg "Mat.mul_into: dimension mismatch";
  check_dst "Mat.mul_into" ~rows:a.rows ~cols:b.cols dst;
  check_not_aliased "Mat.mul_into" dst [ a; b ];
  (* Same tiled kernel as [mul]: every element is fully overwritten, so
     no zero fill is needed. *)
  gemm_kernel ~m:a.rows ~k:a.cols ~n:b.cols a.data b.data dst.data

let mul_vec_into ~dst a v =
  if a.cols <> Vec.dim v then
    invalid_arg "Mat.mul_vec_into: dimension mismatch";
  if Array.length dst <> a.rows then
    invalid_arg "Mat.mul_vec_into: dst dimension mismatch";
  if Array.length dst > 0 && (dst == v || dst == a.data) then
    invalid_arg "Mat.mul_vec_into: dst aliases a source";
  let ad = a.data in
  for i = 0 to a.rows - 1 do
    let acc = ref 0.0 in
    let off = i * a.cols in
    for j = 0 to a.cols - 1 do
      acc := !acc +. (Array.unsafe_get ad (off + j) *. Array.unsafe_get v j)
    done;
    Array.unsafe_set dst i !acc
  done

let norm_fro a = Vec.norm2 a.data

let norm_inf a =
  let best = ref 0.0 in
  for i = 0 to a.rows - 1 do
    let s = ref 0.0 in
    for j = 0 to a.cols - 1 do
      s := !s +. Float.abs (get a i j)
    done;
    if !s > !best then best := !s
  done;
  !best

let max_abs a = Vec.norm_inf a.data

let is_square a = a.rows = a.cols

let symmetrize a = scale 0.5 (add a (transpose a))

let pp fmt a =
  Format.fprintf fmt "@[<v>";
  for i = 0 to a.rows - 1 do
    Format.fprintf fmt "[";
    for j = 0 to a.cols - 1 do
      if j > 0 then Format.fprintf fmt ", ";
      Format.fprintf fmt "%10.5g" (get a i j)
    done;
    Format.fprintf fmt "]";
    if i < a.rows - 1 then Format.fprintf fmt "@,"
  done;
  Format.fprintf fmt "@]"
