open Linalg

exception No_solution of string

(* SDA-I doubling (Chu, Fan, Lin):
     A_{k+1} = A_k (I + G_k H_k)^-1 A_k
     G_{k+1} = G_k + A_k (I + G_k H_k)^-1 G_k A_k^T
     H_{k+1} = H_k + A_k^T H_k (I + G_k H_k)^-1 A_k
   with A_0 = A, G_0 = B R^-1 B^T, H_0 = Q; H_k converges to X. *)
let solve ~a ~b ~q ~r =
  let n = a.Mat.rows in
  if not (Mat.is_square a) then invalid_arg "Dare.solve: A not square";
  if b.Mat.rows <> n then invalid_arg "Dare.solve: B rows mismatch";
  let g0 =
    try Mat.mul3 b (Lu.inv r) (Mat.transpose b)
    with Lu.Singular -> raise (No_solution "R is singular")
  in
  (* Double-buffered iterates (A_k, G_k, H_k) with shared n x n scratch.
     Each product below reproduces the float ops of the allocating
     expression — [mul3] on square operands associates left, so
     A (W^-1 G) A^T becomes (A * t) * A^T. *)
  let ak = ref (Mat.copy a) in
  let gk = ref g0 in
  let hk = ref (Mat.symmetrize q) in
  let a_next = ref (Mat.create n n) in
  let g_next = ref (Mat.create n n) in
  let h_next = ref (Mat.create n n) in
  let i = Mat.identity n in
  let w = Mat.create n n in
  let wa = Mat.create n n in
  let akt = Mat.create n n in
  let t1 = Mat.create n n in
  let t2 = Mat.create n n in
  let converged = ref false in
  let iter = ref 0 in
  while (not !converged) && !iter < 100 do
    incr iter;
    Mat.mul_into ~dst:t1 !gk !hk;
    Mat.add_into ~dst:w i t1;
    let winv =
      try Lu.inv w
      with Lu.Singular -> raise (No_solution "doubling iterate singular")
    in
    Mat.mul_into ~dst:wa winv !ak;
    Mat.mul_into ~dst:!a_next !ak wa;
    Mat.transpose_into ~dst:akt !ak;
    Mat.mul_into ~dst:t1 winv !gk;
    Mat.mul_into ~dst:t2 !ak t1;
    Mat.mul_into ~dst:t1 t2 akt;
    Mat.add_into ~dst:t2 !gk t1;
    Mat.symmetrize_into ~dst:!g_next t2;
    Mat.mul_into ~dst:t1 !hk wa;
    Mat.mul_into ~dst:t2 akt t1;
    Mat.add_into ~dst:t1 !hk t2;
    Mat.symmetrize_into ~dst:!h_next t1;
    Mat.sub_into ~dst:t2 !h_next !hk;
    let hnorm = Mat.norm_fro !h_next in
    let delta = Mat.norm_fro t2 /. Float.max 1.0 hnorm in
    let swap r1 r2 =
      let t = !r1 in
      r1 := !r2;
      r2 := t
    in
    swap ak a_next;
    swap gk g_next;
    swap hk h_next;
    if delta < 1e-14 then converged := true;
    if not (Float.is_finite hnorm) then
      raise (No_solution "doubling iteration diverged")
  done;
  if not !converged then raise (No_solution "doubling did not converge");
  !hk

let gain ~a ~b ~r x =
  let btx = Mat.mul (Mat.transpose b) x in
  let s = Mat.add r (Mat.mul btx b) in
  Lu.solve s (Mat.mul btx a)
