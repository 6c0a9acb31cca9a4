(* Entry-wise comparisons with an absolute tolerance (default 1e-9): how
   the suites check a computed vector or matrix. *)

open Linalg

let vec ?(tol = 1e-9) (a : Vec.t) (b : Vec.t) =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> not (Float.abs (x -. y) > tol)) a b

let mat ?(tol = 1e-9) (a : Mat.t) (b : Mat.t) =
  a.rows = b.rows && a.cols = b.cols && vec ~tol a.data b.data
