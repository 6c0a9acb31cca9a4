(* Free-run simulations that generate test records: a discrete
   state-space system driven by an input sequence, and an ARX model whose
   past outputs are its own predictions. Both sum their terms in the
   order the library's steppers do ([Ss.step_into] and
   [Sysid.Arx.predict_one_step]). *)

open Linalg

(* Outputs of [sys] from state [x0] (default zero), one per input. *)
let ss (sys : Control.Ss.t) ?x0 us =
  let x = ref (match x0 with Some v -> v | None -> Vec.create (Control.Ss.order sys)) in
  Array.map
    (fun u ->
      let y = Array.map2 ( +. ) (Mat.mul_vec sys.c !x) (Mat.mul_vec sys.d u) in
      x := Array.map2 ( +. ) (Mat.mul_vec sys.a !x) (Mat.mul_vec sys.b u);
      y)
    us

(* [y0] seeds the first [max na (nb - 1)] outputs. *)
let arx (m : Sysid.Arx.model) ~u ~y0 =
  let h = max m.na (m.nb - 1) in
  if Array.length y0 < h then invalid_arg "Simulate.arx: y0 shorter than lag";
  let out = Array.make (Array.length u) (Vec.create m.ny) in
  for t = 0 to Array.length u - 1 do
    if t < h then out.(t) <- Vec.copy y0.(t)
    else begin
      let y = Vec.create m.ny in
      let add v = Array.iteri (fun c x -> y.(c) <- y.(c) +. x) v in
      Array.iteri (fun i a -> add (Mat.mul_vec a out.(t - 1 - i))) m.a;
      Array.iteri (fun j b -> add (Mat.mul_vec b u.(t - j))) m.b;
      out.(t) <- y
    end
  done;
  out
