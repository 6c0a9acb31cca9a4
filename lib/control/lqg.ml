open Linalg

(* The filtering Riccati equation is the dual of the control one:
   P = A P A^T - A P C^T (C P C^T + V)^-1 C P A^T + W,
   solved by Dare on the transposed data. Predictor gain
   L = A P C^T (C P C^T + V)^-1. *)
let kalman_gain ~a ~c ~w ~v =
  let p = Dare.solve ~a:(Mat.transpose a) ~b:(Mat.transpose c) ~q:w ~r:v in
  let pct = Mat.mul p (Mat.transpose c) in
  let s = Mat.add (Mat.mul c pct) v in
  Mat.mul a (Lu.solve_right pct s)
