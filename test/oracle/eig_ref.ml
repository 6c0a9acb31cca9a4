(* The pre-Francis eigenvalue path, kept as an independent oracle for
   the Francis tests: Hessenberg form lifted to [Cmat], Wilkinson single
   shifts, Givens sweeps. *)

open Linalg
open Complex

let cnorm = Complex.norm

(* Eigenvalues of a complex 2x2 block [[a, b]; [c, d]]. *)
let eig2x2 a b c d =
  let tr = Complex.add a d in
  let half_tr = Complex.div tr { re = 2.0; im = 0.0 } in
  let amd = Complex.sub a d in
  let disc =
    Complex.add (Complex.mul amd amd)
      (Complex.mul { re = 4.0; im = 0.0 } (Complex.mul b c))
  in
  let s = Complex.sqrt disc in
  let half_s = Complex.div s { re = 2.0; im = 0.0 } in
  (Complex.add half_tr half_s, Complex.sub half_tr half_s)

(* Complex Givens rotation G = [[c, s]; [-conj s, c]] with real c >= 0 such
   that G [x; y] = [r; 0]. *)
let givens x y =
  if cnorm y = 0.0 then (1.0, zero)
  else if cnorm x = 0.0 then (0.0, one)
  else begin
    let t = Float.sqrt (Complex.norm2 x +. Complex.norm2 y) in
    let c = cnorm x /. t in
    let phase = Complex.div x { re = cnorm x; im = 0.0 } in
    let s = Complex.div (Complex.mul phase (Complex.conj y)) { re = t; im = 0.0 } in
    (c, s)
  end

(* Shifted QR iteration on a complex upper Hessenberg matrix — the
   pre-Francis reference path. The matrix is modified in place; returns
   the array of eigenvalues. Kept as the oracle the property tests
   compare the real Francis path against. *)
let qr_hessenberg_eigenvalues h =
  let n = h.Cmat.rows in
  let eigs = Array.make n zero in
  let eps = 1e-13 in
  let subdiag_negligible i =
    (* h.(i).(i-1) negligible versus its diagonal neighbours *)
    let s = cnorm (Cmat.get h (i - 1) (i - 1)) +. cnorm (Cmat.get h i i) in
    let s = if s = 0.0 then Cmat.max_abs h else s in
    cnorm (Cmat.get h i (i - 1)) <= eps *. s
  in
  let hi = ref (n - 1) in
  let iter_count = ref 0 in
  let max_iter = 60 * n in
  while !hi >= 0 do
    if !hi = 0 then begin
      eigs.(0) <- Cmat.get h 0 0;
      hi := -1
    end
    else begin
      (* Find the start [l] of the active unreduced block ending at [hi]. *)
      let l = ref !hi in
      while !l > 0 && not (subdiag_negligible !l) do
        decr l
      done;
      if !l = !hi then begin
        eigs.(!hi) <- Cmat.get h !hi !hi;
        decr hi
      end
      else if !l = !hi - 1 then begin
        let e1, e2 =
          eig2x2
            (Cmat.get h !l !l) (Cmat.get h !l !hi)
            (Cmat.get h !hi !l) (Cmat.get h !hi !hi)
        in
        eigs.(!l) <- e1;
        eigs.(!hi) <- e2;
        hi := !hi - 2
      end
      else begin
        incr iter_count;
        if !iter_count > max_iter then
          failwith "Eig.eigenvalues: QR iteration did not converge";
        (* Wilkinson shift from the trailing 2x2, with an occasional
           exceptional shift to break symmetry-induced stalls. *)
        let shift =
          if !iter_count mod 17 = 0 then
            {
              re =
                Float.abs (cnorm (Cmat.get h !hi (!hi - 1)))
                +. Float.abs (cnorm (Cmat.get h (!hi - 1) (!hi - 2)));
              im = 0.0;
            }
          else begin
            let e1, e2 =
              eig2x2
                (Cmat.get h (!hi - 1) (!hi - 1)) (Cmat.get h (!hi - 1) !hi)
                (Cmat.get h !hi (!hi - 1)) (Cmat.get h !hi !hi)
            in
            let hnn = Cmat.get h !hi !hi in
            if cnorm (Complex.sub e1 hnn) <= cnorm (Complex.sub e2 hnn)
            then e1 else e2
          end
        in
        let l = !l and hi_i = !hi in
        for i = l to hi_i do
          Cmat.set h i i (Complex.sub (Cmat.get h i i) shift)
        done;
        (* Left Givens sweep: triangularize the active block. The rows
           involved are addressed directly in the backing array (checked
           implicitly by the loop bounds); the complex arithmetic is
           unchanged. *)
        let hd = h.Cmat.data in
        let rot = Array.make (hi_i - l) (1.0, zero) in
        for k = l to hi_i - 1 do
          let rk = k * n and rk1 = (k + 1) * n in
          let c, s =
            givens (Array.unsafe_get hd (rk + k)) (Array.unsafe_get hd (rk1 + k))
          in
          rot.(k - l) <- (c, s);
          let cc = { re = c; im = 0.0 } in
          for j = k to hi_i do
            let x = Array.unsafe_get hd (rk + j)
            and y = Array.unsafe_get hd (rk1 + j) in
            Array.unsafe_set hd (rk + j)
              (Complex.add (Complex.mul cc x) (Complex.mul s y));
            Array.unsafe_set hd (rk1 + j)
              (Complex.sub (Complex.mul cc y)
                 (Complex.mul (Complex.conj s) x))
          done
        done;
        (* Right sweep: H <- R * Q^H, restoring Hessenberg form. *)
        for k = l to hi_i - 1 do
          let c, s = rot.(k - l) in
          let cc = { re = c; im = 0.0 } in
          for i = l to min (k + 1) hi_i do
            let row = i * n in
            let x = Array.unsafe_get hd (row + k)
            and y = Array.unsafe_get hd (row + k + 1) in
            Array.unsafe_set hd (row + k)
              (Complex.add (Complex.mul cc x) (Complex.mul (Complex.conj s) y));
            Array.unsafe_set hd (row + k + 1)
              (Complex.sub (Complex.mul cc y) (Complex.mul s x))
          done
        done;
        for i = l to hi_i do
          Cmat.set h i i (Complex.add (Cmat.get h i i) shift)
        done
      end
    end
  done;
  eigs

(* Reference path retained for cross-validation: Hessenberg + complex
   shifted QR, exactly the pre-Francis implementation. *)
let eigenvalues_complex_ref a =
  if not (Mat.is_square a) then
    invalid_arg "Eig.eigenvalues_complex_ref: non-square";
  let n = a.Mat.rows in
  if n = 0 then [||]
  else if n = 1 then [| { re = Mat.get a 0 0; im = 0.0 } |]
  else qr_hessenberg_eigenvalues (Cmat.of_real (Eig.hessenberg a))
