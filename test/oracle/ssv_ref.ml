(* The boxed structured-singular-value bounds [Control.Ssv] computed
   before it took (re, im) pairs, kept verbatim on [Cmat] as the oracle
   its pair code must match bit for bit. The two library calls it made
   on [Cmat.t] are rebuilt below from the pair API: [norm2_complex]'s
   planar copy reads the same floats, and [spectral_radius_complex] is
   the real embedding the library's lower bound builds. *)

open Linalg

module Svd = struct
  let norm2_complex m = Linalg.Svd.norm2_complex (Cmat.to_pair m)
end

module Eig = struct
  let spectral_radius_complex c =
    let re = Cmat.real_part c and im = Cmat.imag_part c in
    let big = Mat.blocks [ [ re; Mat.neg im ]; [ im; re ] ] in
    Linalg.Eig.spectral_radius big
end

type block = Control.Ssv.block = Full of int * int | Repeated of int

type structure = block list

let rows_of = function Full (p, _) -> p | Repeated n -> n

let cols_of = function Full (_, q) -> q | Repeated n -> n

let block_rows s = List.fold_left (fun acc b -> acc + rows_of b) 0 s

let block_cols s = List.fold_left (fun acc b -> acc + cols_of b) 0 s

let validate s m =
  if s = [] then invalid_arg "Ssv: empty structure";
  List.iter
    (fun b ->
      if rows_of b <= 0 || cols_of b <= 0 then
        invalid_arg "Ssv: non-positive block size")
    s;
  let r, c = Cmat.dims m in
  if block_rows s <> r || block_cols s <> c then
    invalid_arg "Ssv: structure does not tile the matrix"

type bound = Control.Ssv.bound = { value : float; scales : float array }

(* Row/column offsets of each block within M. *)
let offsets s =
  let n = List.length s in
  let roff = Array.make n 0 and coff = Array.make n 0 in
  let _ =
    List.fold_left
      (fun (i, r, c) b ->
        roff.(i) <- r;
        coff.(i) <- c;
        (i + 1, r + rows_of b, c + cols_of b))
      (0, 0, 0) s
  in
  (roff, coff)

(* sigma_max(D_l M D_r^-1) for per-block scalar scales d. [dst] lets the
   coordinate-descent loop reuse one scratch matrix across its ~50 evals;
   every entry is overwritten (the structure tiles M), so no clearing is
   needed. *)
let scaled_norm ?dst s (roff, coff) m d =
  let blocks = Array.of_list s in
  let r, c = Cmat.dims m in
  let scaled =
    match dst with
    | Some x when Cmat.dims x = (r, c) -> x
    | Some _ -> invalid_arg "Ssv.scaled_norm: dst dimension mismatch"
    | None -> Cmat.create r c
  in
  Array.iteri
    (fun i bi ->
      Array.iteri
        (fun j bj ->
          let f = d.(i) /. d.(j) in
          for p = 0 to rows_of bi - 1 do
            for q = 0 to cols_of bj - 1 do
              Cmat.set scaled (roff.(i) + p) (coff.(j) + q)
                (Complex.mul
                   { Complex.re = f; im = 0.0 }
                   (Cmat.get m (roff.(i) + p) (coff.(j) + q)))
            done
          done)
        blocks)
    blocks;
  Svd.norm2_complex scaled

let mu_upper s m =
  validate s m;
  let off = offsets s in
  let nb = List.length s in
  let d = Array.make nb 1.0 in
  if nb = 1 then { value = Svd.norm2_complex m; scales = d }
  else begin
    let blocks = Array.of_list s in
    let roff, coff = off in
    (* Osborne-style balancing on block Frobenius norms. *)
    for _sweep = 1 to 25 do
      for i = 0 to nb - 1 do
        let row = ref 0.0 and col = ref 0.0 in
        for j = 0 to nb - 1 do
          if j <> i then begin
            (* Block (i, j) of the scaled matrix: factor d_i / d_j. *)
            for p = 0 to rows_of blocks.(i) - 1 do
              for q = 0 to cols_of blocks.(j) - 1 do
                let z = Cmat.get m (roff.(i) + p) (coff.(j) + q) in
                let f = d.(i) /. d.(j) in
                row := !row +. (f *. f *. Complex.norm2 z)
              done
            done;
            for p = 0 to rows_of blocks.(j) - 1 do
              for q = 0 to cols_of blocks.(i) - 1 do
                let z = Cmat.get m (roff.(j) + p) (coff.(i) + q) in
                let f = d.(j) /. d.(i) in
                col := !col +. (f *. f *. Complex.norm2 z)
              done
            done
          end
        done;
        if !row > 1e-300 && !col > 1e-300 then
          d.(i) <- d.(i) *. ((!col /. !row) ** 0.25)
      done
    done;
    (* Coordinate-descent refinement of sigma_max over log d_i. *)
    let scratch = Cmat.create (fst (Cmat.dims m)) (snd (Cmat.dims m)) in
    let eval d = scaled_norm ~dst:scratch s off m d in
    let refine_coordinate i =
      let best = ref (eval d) in
      let base = d.(i) in
      let try_factor f =
        d.(i) <- base *. f;
        let v = eval d in
        if v < !best -. 1e-12 then best := v else d.(i) <- base
      in
      let factors = [ 0.5; 0.7; 0.85; 0.95; 1.05; 1.2; 1.4; 2.0 ] in
      List.iter
        (fun f ->
          let current = d.(i) in
          try_factor (f *. current /. base);
          if d.(i) = base then d.(i) <- current)
        factors
    in
    for _pass = 1 to 3 do
      for i = 0 to nb - 1 do
        refine_coordinate i
      done
    done;
    (* Normalize so the last scale is 1 (scales are projective). *)
    let dn = d.(nb - 1) in
    let d = Array.map (fun x -> x /. dn) d in
    { value = scaled_norm ~dst:scratch s off m d; scales = d }
  end

(* Build the aligning Delta for the current iterate: given z = M w, each
   block maps z_i back to a vector aligned with w_i with unit gain. Any
   such Delta has sigma_max <= 1, so rho(M Delta) is a certified lower
   bound. *)
let align_delta s (roff, coff) w z =
  let blocks = Array.of_list s in
  let total_r = Array.fold_left (fun a b -> a + rows_of b) 0 blocks in
  let total_c = Array.fold_left (fun a b -> a + cols_of b) 0 blocks in
  let delta = Cmat.create total_c total_r in
  Array.iteri
    (fun i b ->
      match b with
      | Full (p, q) ->
        (* Delta_i = w_i z_i^H / (|w_i| |z_i|): rank one, unit norm. *)
        let wi = Array.sub w coff.(i) q in
        let zi = Array.sub z roff.(i) p in
        let nw =
          Float.sqrt (Array.fold_left (fun a x -> a +. Complex.norm2 x) 0.0 wi)
        in
        let nz =
          Float.sqrt (Array.fold_left (fun a x -> a +. Complex.norm2 x) 0.0 zi)
        in
        if nw > 1e-300 && nz > 1e-300 then
          for r = 0 to q - 1 do
            for c = 0 to p - 1 do
              Cmat.set delta (coff.(i) + r) (roff.(i) + c)
                (Complex.div
                   (Complex.mul wi.(r) (Complex.conj zi.(c)))
                   { Complex.re = nw *. nz; im = 0.0 })
            done
          done
      | Repeated n ->
        (* delta = phase of z_i^H w_i, repeated on the diagonal. *)
        let wi = Array.sub w coff.(i) n in
        let zi = Array.sub z roff.(i) n in
        let inner =
          Array.fold_left
            (fun acc k ->
              Complex.add acc (Complex.mul wi.(k) (Complex.conj zi.(k))))
            Complex.zero
            (Array.init n (fun k -> k))
        in
        let mag = Complex.norm inner in
        let phase =
          if mag > 1e-300 then
            Complex.div inner { Complex.re = mag; im = 0.0 }
          else Complex.one
        in
        for k = 0 to n - 1 do
          Cmat.set delta (coff.(i) + k) (roff.(i) + k) phase
        done)
    blocks;
  delta

let mu_lower_search s m restarts =
  let off = offsets s in
  let _, c = Cmat.dims m in
  let best = ref 0.0 in
  let best_delta = ref (Cmat.create c (fst (Cmat.dims m))) in
  let st = Random.State.make [| 7; c |] in
  for trial = 0 to restarts - 1 do
    (* Random complex start vector. *)
    let w =
      ref
        (Array.init c (fun _ ->
             {
               Complex.re = Random.State.float st 2.0 -. 1.0;
               im = Random.State.float st 2.0 -. 1.0;
             }))
    in
    ignore trial;
    for _iter = 1 to 30 do
      let z = Cmat.mul_vec m !w in
      let delta = align_delta s off !w z in
      let w_next = Cmat.mul_vec delta z in
      let n =
        Float.sqrt
          (Array.fold_left (fun a x -> a +. Complex.norm2 x) 0.0 w_next)
      in
      if n > 1e-300 then
        w := Array.map (fun x -> Complex.div x { Complex.re = n; im = 0.0 }) w_next
    done;
    let z = Cmat.mul_vec m !w in
    let delta = align_delta s off !w z in
    let rho = Eig.spectral_radius_complex (Cmat.mul m delta) in
    if rho > !best then begin
      best := rho;
      best_delta := delta
    end
  done;
  (!best_delta, !best)

let mu_lower s m =
  validate s m;
  snd (mu_lower_search s m 4)

let worst_case_delta s m =
  validate s m;
  mu_lower_search s m 6
