(* Riccati residuals of a candidate solution [x], each a Frobenius norm
   normalized by [max 1 |x|]: the continuous-time (CARE)
   A^T X + X A - X B R^-1 B^T X + Q, and the discrete-time (DARE)
   A^T X A - (B^T X A)^T K + Q - X with the gain K of [Dare.gain]. *)

open Linalg

let care ~a ~b ~q ~r x =
  let g = Mat.mul3 b (Lu.inv r) (Mat.transpose b) in
  let res =
    Mat.add
      (Mat.sub
         (Mat.add (Mat.mul (Mat.transpose a) x) (Mat.mul x a))
         (Mat.mul3 x g x))
      q
  in
  Mat.norm_fro res /. Float.max 1.0 (Mat.norm_fro x)

let dare ~a ~b ~q ~r x =
  let k = Control.Dare.gain ~a ~b ~r x in
  let atxa = Mat.mul3 (Mat.transpose a) x a in
  let correction =
    Mat.mul (Mat.transpose (Mat.mul (Mat.mul (Mat.transpose b) x) a)) k
  in
  let res = Mat.sub (Mat.add (Mat.sub atxa correction) q) x in
  Mat.norm_fro res /. Float.max 1.0 (Mat.norm_fro x)
