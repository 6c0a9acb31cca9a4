(* Reflector application on the flat data array: one add per element
   instead of a bounds-checked [Mat.get] with an index multiply. The
   accumulation order (row index ascending) matches the naive loops
   these replaced, so factorizations are bit-identical.

   w <- H w on rows [k..] across columns [k..jmax], H = I - 2 v v^T. *)
let apply_reflector_left w ~k ~jmax (v : float array) =
  let d = w.Mat.data and cols = w.Mat.cols in
  let len = Array.length v in
  for j = k to jmax do
    let base = (k * cols) + j in
    let dot = ref 0.0 in
    for i = 0 to len - 1 do
      dot :=
        !dot +. (Array.unsafe_get v i *. Array.unsafe_get d (base + (i * cols)))
    done;
    let d2 = 2.0 *. !dot in
    for i = 0 to len - 1 do
      let idx = base + (i * cols) in
      Array.unsafe_set d idx
        (Array.unsafe_get d idx -. (d2 *. Array.unsafe_get v i))
    done
  done

(* Householder elimination on the augmented matrix [a | rhs]: reflectors are
   computed from the first [n] columns only and applied across, leaving
   [R | Q^T rhs] without ever forming Q. This keeps least squares O(m n^2)
   for the tall regression matrices of system identification. *)
let triangularize_augmented a rhs =
  let m = a.Mat.rows and n = a.Mat.cols in
  if rhs.Mat.rows <> m then
    invalid_arg "Qr: right-hand side row mismatch";
  let w = Mat.hcat a rhs in
  let total = w.Mat.cols in
  for k = 0 to min (m - 1) n - 1 do
    let x = Array.init (m - k) (fun i -> Mat.get w (k + i) k) in
    let normx = Vec.norm2 x in
    if normx > 0.0 then begin
      let alpha = if x.(0) >= 0.0 then -.normx else normx in
      let v = Array.copy x in
      v.(0) <- v.(0) -. alpha;
      let vnorm = Vec.norm2 v in
      if vnorm > 1e-300 then begin
        let v = Vec.scale (1.0 /. vnorm) v in
        apply_reflector_left w ~k ~jmax:(total - 1) v
      end
    end
  done;
  (Mat.sub_matrix w 0 0 n n, Mat.sub_matrix w 0 n n (total - n))

let back_substitute r y =
  let n = r.Mat.cols in
  let x = Vec.create n in
  for i = n - 1 downto 0 do
    let acc = ref y.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (Mat.get r i j *. x.(j))
    done;
    let d = Mat.get r i i in
    if Float.abs d <= 1e-13 *. Float.max 1.0 (Mat.max_abs r) then
      raise Lu.Singular;
    x.(i) <- !acc /. d
  done;
  x

let solve_least_squares a b =
  let r, qtb = triangularize_augmented a (Mat.of_vec_col b) in
  back_substitute r (Mat.col qtb 0)

let solve_least_squares_mat a b =
  let r, qtb = triangularize_augmented a b in
  let x = Mat.create a.Mat.cols b.Mat.cols in
  for j = 0 to b.Mat.cols - 1 do
    Mat.set_col x j (back_substitute r (Mat.col qtb j))
  done;
  x
