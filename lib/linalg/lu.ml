exception Singular

type factors = { lu : Mat.t; perm : int array; sign : float }

(* Doolittle LU with partial pivoting, in place on a copy of [a] (rows
   are swapped element by element). The pivot tolerance is relative to
   the largest entry of the matrix so that well-scaled singular matrices
   are detected reliably. *)
let factorize a =
  if not (Mat.is_square a) then invalid_arg "Lu.factorize: non-square";
  let n = a.Mat.rows in
  let lu = Mat.copy a in
  let d = lu.Mat.data in
  let perm = Array.init n (fun i -> i) in
  let sign = ref 1.0 in
  let tol = 1e-13 *. Float.max 1.0 (Mat.max_abs a) in
  for k = 0 to n - 1 do
    (* Find pivot. *)
    let pivot_row = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs d.((i * n) + k) > Float.abs d.((!pivot_row * n) + k) then
        pivot_row := i
    done;
    let p = !pivot_row in
    if Float.abs d.((p * n) + k) <= tol then raise Singular;
    if p <> k then begin
      for j = 0 to n - 1 do
        let t = d.((k * n) + j) in
        d.((k * n) + j) <- d.((p * n) + j);
        d.((p * n) + j) <- t
      done;
      let t = perm.(k) in
      perm.(k) <- perm.(p);
      perm.(p) <- t;
      sign := -. !sign
    end;
    let kb = k * n in
    let pivot = d.(kb + k) in
    for i = k + 1 to n - 1 do
      let ib = i * n in
      let m = d.(ib + k) /. pivot in
      d.(ib + k) <- m;
      if m <> 0.0 then
        for j = k + 1 to n - 1 do
          Array.unsafe_set d (ib + j)
            (Array.unsafe_get d (ib + j) -. (m *. Array.unsafe_get d (kb + j)))
        done
    done
  done;
  { lu; perm; sign = !sign }

(* All columns of [b] at once: its rows are permuted into a fresh matrix
   and both substitutions run in place on it, one row at a time. Entry
   (i, c) still sees the terms of a single-column solve in the same order
   (j ascending), so every column gets the bits it would get alone. *)
let solve_mat { lu; perm; _ } b =
  let n = lu.Mat.rows and m = b.Mat.cols in
  if b.Mat.rows <> n then invalid_arg "Lu.solve_mat: dimension mismatch";
  let l = lu.Mat.data in
  let x = Mat.create n m in
  let xd = x.Mat.data in
  for i = 0 to n - 1 do
    Array.blit b.Mat.data (perm.(i) * m) xd (i * m) m
  done;
  (* Forward substitution with the unit lower triangle. *)
  for i = 1 to n - 1 do
    let ib = i * m in
    for j = 0 to i - 1 do
      let lij = l.((i * n) + j) and jb = j * m in
      for c = 0 to m - 1 do
        Array.unsafe_set xd (ib + c)
          (Array.unsafe_get xd (ib + c) -. (lij *. Array.unsafe_get xd (jb + c)))
      done
    done
  done;
  (* Back substitution with the upper triangle. *)
  for i = n - 1 downto 0 do
    let ib = i * m in
    for j = i + 1 to n - 1 do
      let uij = l.((i * n) + j) and jb = j * m in
      for c = 0 to m - 1 do
        Array.unsafe_set xd (ib + c)
          (Array.unsafe_get xd (ib + c) -. (uij *. Array.unsafe_get xd (jb + c)))
      done
    done;
    let uii = l.((i * n) + i) in
    for c = 0 to m - 1 do
      Array.unsafe_set xd (ib + c) (Array.unsafe_get xd (ib + c) /. uii)
    done
  done;
  x

let inv_factored f = solve_mat f (Mat.identity f.lu.Mat.rows)

let det_factored { lu; sign; _ } =
  let d = ref sign in
  for i = 0 to lu.Mat.rows - 1 do
    d := !d *. Mat.get lu i i
  done;
  !d

let solve a b = solve_mat (factorize a) b

let solve_right b a = Mat.transpose (solve (Mat.transpose a) (Mat.transpose b))

let inv a = inv_factored (factorize a)
