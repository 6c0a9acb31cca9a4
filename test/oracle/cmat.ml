(* Dense complex matrices (row-major) on boxed [Stdlib.Complex] entries:
   the representation the library used before it kept a complex matrix
   as a pair of real [Mat.t] planes. The reference implementations in
   this library compute in it, so the library's planar kernels are
   checked against independent boxed arithmetic. *)

open Linalg
open Complex

type t = { rows : int; cols : int; data : Complex.t array }

let create rows cols = { rows; cols; data = Array.make (rows * cols) zero }

let init rows cols f =
  let a = create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      a.data.((i * cols) + j) <- f i j
    done
  done;
  a

let identity n = init n n (fun i j -> if i = j then one else zero)

let of_real m =
  init m.Mat.rows m.Mat.cols (fun i j -> { re = Mat.get m i j; im = 0.0 })

let real_part a = Mat.init a.rows a.cols (fun i j -> (a.data.((i * a.cols) + j)).re)

let imag_part a = Mat.init a.rows a.cols (fun i j -> (a.data.((i * a.cols) + j)).im)

(* The library's representation, both ways. *)
let of_pair (re, im) =
  init re.Mat.rows re.Mat.cols (fun i j ->
      { re = Mat.get re i j; im = Mat.get im i j })

let to_pair a = (real_part a, imag_part a)

let get a i j = a.data.((i * a.cols) + j)

let set a i j x = a.data.((i * a.cols) + j) <- x

let dims a = (a.rows, a.cols)

let copy a = { a with data = Array.copy a.data }

let check_same name a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg (name ^ ": dimension mismatch")

let add a b =
  check_same "Cmat.add" a b;
  { a with data = Array.mapi (fun k x -> Complex.add x b.data.(k)) a.data }

let mul a b =
  if a.cols <> b.rows then invalid_arg "Cmat.mul: dimension mismatch";
  let r = create a.rows b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = a.data.((i * a.cols) + k) in
      if aik.re <> 0.0 || aik.im <> 0.0 then begin
        let boff = k * b.cols and roff = i * b.cols in
        for j = 0 to b.cols - 1 do
          r.data.(roff + j)
          <- Complex.add r.data.(roff + j) (Complex.mul aik b.data.(boff + j))
        done
      end
    done
  done;
  r

let mul_vec a v =
  if a.cols <> Array.length v then
    invalid_arg "Cmat.mul_vec: dimension mismatch";
  Array.init a.rows (fun i ->
      let acc = ref zero in
      let off = i * a.cols in
      for j = 0 to a.cols - 1 do
        acc := Complex.add !acc (Complex.mul a.data.(off + j) v.(j))
      done;
      !acc)

let max_abs a = Array.fold_left (fun acc x -> Float.max acc (Complex.norm x)) 0.0 a.data

(* Gaussian elimination with partial pivoting in complex arithmetic, on
   copies of [a] and [b] ([m] is triangularized in place, [rhs] is
   reduced alongside). [Ss]'s planar frequency-response kernel performs
   these same float operations on unboxed arrays. *)
let solve a b =
  if not (a.rows = a.cols) then invalid_arg "Cmat.solve: non-square";
  if a.rows <> b.rows then invalid_arg "Cmat.solve: dimension mismatch";
  let m = copy a and rhs = copy b in
  let n = m.rows in
  let tol = 1e-14 *. Float.max 1.0 (max_abs m) in
  for k = 0 to n - 1 do
    let pivot_row = ref k in
    for i = k + 1 to n - 1 do
      if Complex.norm (get m i k) > Complex.norm (get m !pivot_row k) then
        pivot_row := i
    done;
    if Complex.norm (get m !pivot_row k) <= tol then raise Lu.Singular;
    if !pivot_row <> k then begin
      for j = 0 to n - 1 do
        let t = get m k j in
        set m k j (get m !pivot_row j);
        set m !pivot_row j t
      done;
      for j = 0 to rhs.cols - 1 do
        let t = get rhs k j in
        set rhs k j (get rhs !pivot_row j);
        set rhs !pivot_row j t
      done
    end;
    let pivot = get m k k in
    for i = k + 1 to n - 1 do
      let f = Complex.div (get m i k) pivot in
      if f.re <> 0.0 || f.im <> 0.0 then begin
        for j = k to n - 1 do
          set m i j (Complex.sub (get m i j) (Complex.mul f (get m k j)))
        done;
        for j = 0 to rhs.cols - 1 do
          set rhs i j (Complex.sub (get rhs i j) (Complex.mul f (get rhs k j)))
        done
      end
    done
  done;
  let x = create n rhs.cols in
  for j = 0 to rhs.cols - 1 do
    for i = n - 1 downto 0 do
      let acc = ref (get rhs i j) in
      for l = i + 1 to n - 1 do
        acc := Complex.sub !acc (Complex.mul (get m i l) (get x l j))
      done;
      set x i j (Complex.div !acc (get m i i))
    done
  done;
  x

let approx_equal ?(tol = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols
  &&
  let ok = ref true in
  Array.iteri
    (fun k x -> if Complex.norm (Complex.sub x b.data.(k)) > tol then ok := false)
    a.data;
  !ok
