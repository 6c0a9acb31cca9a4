(* One-sided Jacobi SVD: orthogonalize the columns of a working copy of
   [a] with plane rotations accumulated into [v]; at convergence the column
   norms are the singular values.

   The sweep kernel operates on the TRANSPOSE of the working matrix, so
   each column of the working matrix is a contiguous row and the inner
   loops are stride-1.

   Two refinements over the textbook cyclic method:

   - Cached column norms. Each sweep starts by computing every column's
     squared norm once; rotations update the two affected entries in
     closed form (the rotation is orthogonal, so alpha' + beta' =
     alpha + beta and both have two-term expressions). The per-pair inner
     loop then reads only the mixed product gamma — one fused
     multiply-add stream instead of three.

   - Threshold ordering. Early sweeps only rotate pairs whose relative
     coupling |gamma| / sqrt(alpha beta) exceeds a per-sweep threshold
     (1e-4, then 1e-9, then the convergence tolerance 1e-14 from sweep 3
     on). Rotating a nearly-orthogonal pair costs a full O(m) pass and
     buys almost nothing while large couplings remain; deferring them
     lets the big rotations shrink the off-diagonal mass first, and on
     the nearly-diagonal iterates that D-K scaling loops produce, whole
     sweeps reduce to the gamma scan with no rotation work at all.
     Convergence is always judged against the final tolerance, never the
     sweep's looser rotation threshold, so the result is as converged as
     the textbook schedule's. *)

let calls_metric = Obs.Metrics.counter "svd.calls"
let sweeps_metric = Obs.Metrics.counter "svd.sweeps"
let unconverged_metric = Obs.Metrics.counter "svd.unconverged"

type sweep_outcome = { sweeps : int; converged : bool }

let convergence_eps = 1e-14

(* Rotation threshold for a given 1-based sweep index: loose on the
   first sweeps, the convergence tolerance from sweep 3 on. *)
let sweep_threshold sweep =
  if sweep = 1 then 1e-4 else if sweep = 2 then 1e-9 else convergence_eps

let note_outcome ~rows ~cols outcome =
  if Obs.Collector.enabled () then begin
    Obs.Metrics.incr calls_metric;
    Obs.Metrics.incr ~by:outcome.sweeps sweeps_metric;
    if not outcome.converged then begin
      Obs.Metrics.incr unconverged_metric;
      Obs.Collector.debug ~name:"svd.unconverged"
        [
          ("rows", Obs.Json.Int rows);
          ("cols", Obs.Json.Int cols);
          ("sweeps", Obs.Json.Int outcome.sweeps);
        ]
    end
  end;
  outcome

(* [wt] is n x m: row j is column j of the m x n working matrix. [v]
   (n x n), when given, accumulates the right rotations; the rotations
   applied to [wt] never read [v], so running with [v = None] yields the
   same [wt] — and therefore the same singular values — for callers that
   only need them. *)
let jacobi_sweeps ?(max_sweeps = 60) ?v wt =
  let n = wt.Mat.rows and m = wt.Mat.cols in
  let wd = wt.Mat.data in
  let eps = convergence_eps in
  let norms2 = Array.make (max n 1) 0.0 in
  let converged = ref false in
  let sweeps = ref 0 in
  while (not !converged) && !sweeps < max_sweeps do
    incr sweeps;
    converged := true;
    let tau = sweep_threshold !sweeps in
    (* Fresh squared norms each sweep: the in-rotation updates below are
       exact in real arithmetic but drift in floats; re-basing once per
       sweep keeps the cached values honest. *)
    for p = 0 to n - 1 do
      let pb = p * m in
      let acc = ref 0.0 in
      for i = 0 to m - 1 do
        let x = Array.unsafe_get wd (pb + i) in
        acc := !acc +. (x *. x)
      done;
      norms2.(p) <- !acc
    done;
    for p = 0 to n - 2 do
      let pb = p * m in
      for q = p + 1 to n - 1 do
        let qb = q * m in
        let alpha = Array.unsafe_get norms2 p
        and beta = Array.unsafe_get norms2 q in
        let gamma = ref 0.0 in
        for i = 0 to m - 1 do
          gamma :=
            !gamma
            +. (Array.unsafe_get wd (pb + i) *. Array.unsafe_get wd (qb + i))
        done;
        let gamma = !gamma in
        let root = sqrt (alpha *. beta) in
        let limit = eps *. root in
        if Float.abs gamma > limit && limit > 0.0 then begin
          converged := false;
          if Float.abs gamma > tau *. root then begin
            let zeta = (beta -. alpha) /. (2.0 *. gamma) in
            let t =
              let sign = if zeta >= 0.0 then 1.0 else -1.0 in
              sign /. (Float.abs zeta +. sqrt (1.0 +. (zeta *. zeta)))
            in
            let c = 1.0 /. sqrt (1.0 +. (t *. t)) in
            let s = c *. t in
            for i = 0 to m - 1 do
              let wip = Array.unsafe_get wd (pb + i)
              and wiq = Array.unsafe_get wd (qb + i) in
              Array.unsafe_set wd (pb + i) ((c *. wip) -. (s *. wiq));
              Array.unsafe_set wd (qb + i) ((s *. wip) +. (c *. wiq))
            done;
            (* Closed-form norm updates for the rotated pair. *)
            let cc = c *. c and ss = s *. s and cs2 = 2.0 *. c *. s in
            norms2.(p) <- (cc *. alpha) -. (cs2 *. gamma) +. (ss *. beta);
            norms2.(q) <- (ss *. alpha) +. (cs2 *. gamma) +. (cc *. beta);
            (match v with
            | None -> ()
            | Some v ->
              let vd = v.Mat.data in
              for i = 0 to n - 1 do
                let r = i * n in
                let vip = Array.unsafe_get vd (r + p)
                and viq = Array.unsafe_get vd (r + q) in
                Array.unsafe_set vd (r + p) ((c *. vip) -. (s *. viq));
                Array.unsafe_set vd (r + q) ((s *. vip) +. (c *. viq))
              done)
          end
        end
      done
    done
  done;
  note_outcome ~rows:m ~cols:n { sweeps = !sweeps; converged = !converged }

(* Singular values of the orthogonalized working matrix: norms of its
   columns = norms of [wt]'s rows, descending, with the sort permutation
   returned so [decompose] can reorder u/v columns identically. *)
let sorted_norms wt =
  let n = wt.Mat.rows in
  let s = Array.init n (fun j -> Vec.norm2 (Mat.row wt j)) in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun i j -> Float.compare s.(j) s.(i)) order;
  (s, order)

let rec decompose a =
  let m = a.Mat.rows and n = a.Mat.cols in
  if m >= n then begin
    let wt = Mat.transpose a in
    let v = Mat.identity n in
    let (_ : sweep_outcome) = jacobi_sweeps ~v wt in
    let s, order = sorted_norms wt in
    let sorted_s = Array.map (fun i -> s.(i)) order in
    let u = Mat.create m n in
    let vs = Mat.create n n in
    Array.iteri
      (fun out_j in_j ->
        let sigma = s.(in_j) in
        let col = Mat.row wt in_j in
        let ucol =
          if sigma > 1e-300 then Vec.scale (1.0 /. sigma) col
          else Vec.basis m (min out_j (m - 1))
        in
        Mat.set_col u out_j ucol;
        Mat.set_col vs out_j (Mat.col v in_j))
      order;
    (u, sorted_s, vs)
  end
  else begin
    (* SVD of the transpose, swapping the roles of u and v. *)
    let u, s, v = decompose (Mat.transpose a) in
    (v, s, u)
  end

(* Values-only path: same rotations (they never depend on [v]), no [v]
   accumulation — about half the sweep work for square matrices, which
   is most of what [Ss.hinf_norm]'s frequency grid asks for. *)
let singular_values ?max_sweeps a =
  let m = a.Mat.rows and n = a.Mat.cols in
  if m = 0 || n = 0 then [||]
  else begin
    let wt = if m >= n then Mat.transpose a else Mat.copy a in
    let (_ : sweep_outcome) = jacobi_sweeps ?max_sweeps wt in
    let s, order = sorted_norms wt in
    Array.map (fun i -> s.(i)) order
  end

let norm2 a =
  if a.Mat.rows = 0 || a.Mat.cols = 0 then 0.0
  else begin
    let s = singular_values a in
    if Vec.dim s = 0 then 0.0 else s.(0)
  end

(* Largest singular value of a complex m x n matrix by one-sided Jacobi
   run directly in complex arithmetic on planar re/im columns: entry
   (i, q) sits at index [q * m + i] of [wre] and [wim], and the sweeps
   overwrite both planes. The
   doubled real embedding [[re -im]; [im re]] this replaces costs 4x the
   elements and (2n)^2/2 column pairs per sweep; working on the n complex
   columns themselves touches a quarter of the data and needs no
   unpacking of the answer (singular values come out once, not twice).

   For a pair (p, q) with Gram entries alpha = |wp|^2, beta = |wq|^2 and
   gamma = <wp, wq> = |gamma| e^{i phi}, multiplying column q by
   u = e^{-i phi} makes the Gram off-diagonal real (= |gamma|), after
   which the classical real rotation angle applies verbatim. The columns
   are updated with the fused product [c, -s u; s, c u] — unitary, so
   singular values are preserved — and the cached norms update by the
   same closed form as the real kernel with gamma replaced by |gamma|. *)
let norm2_planar ~m ~n wre wim =
  if m = 0 || n = 0 then 0.0
  else begin
    let eps = convergence_eps in
    let norms2 = Array.make n 0.0 in
    let converged = ref false in
    let sweeps = ref 0 in
    let max_sweeps = 60 in
    while (not !converged) && !sweeps < max_sweeps do
      incr sweeps;
      converged := true;
      let tau = sweep_threshold !sweeps in
      for p = 0 to n - 1 do
        let pb = p * m in
        let acc = ref 0.0 in
        for i = 0 to m - 1 do
          let re = Array.unsafe_get wre (pb + i)
          and im = Array.unsafe_get wim (pb + i) in
          acc := !acc +. (re *. re) +. (im *. im)
        done;
        norms2.(p) <- !acc
      done;
      for p = 0 to n - 2 do
        let pb = p * m in
        for q = p + 1 to n - 1 do
          let qb = q * m in
          let alpha = Array.unsafe_get norms2 p
          and beta = Array.unsafe_get norms2 q in
          (* gamma = <wp, wq> (conjugate-linear in the first slot). *)
          let gre = ref 0.0 and gim = ref 0.0 in
          for i = 0 to m - 1 do
            let pr = Array.unsafe_get wre (pb + i)
            and pi = Array.unsafe_get wim (pb + i)
            and qr = Array.unsafe_get wre (qb + i)
            and qi = Array.unsafe_get wim (qb + i) in
            gre := !gre +. (pr *. qr) +. (pi *. qi);
            gim := !gim +. (pr *. qi) -. (pi *. qr)
          done;
          let ag = Float.sqrt ((!gre *. !gre) +. (!gim *. !gim)) in
          let root = sqrt (alpha *. beta) in
          let limit = eps *. root in
          if ag > limit && limit > 0.0 then begin
            converged := false;
            if ag > tau *. root then begin
              let ur = !gre /. ag and ui = -. !gim /. ag in
              let zeta = (beta -. alpha) /. (2.0 *. ag) in
              let t =
                let sign = if zeta >= 0.0 then 1.0 else -1.0 in
                sign /. (Float.abs zeta +. sqrt (1.0 +. (zeta *. zeta)))
              in
              let c = 1.0 /. sqrt (1.0 +. (t *. t)) in
              let s = c *. t in
              for i = 0 to m - 1 do
                let pr = Array.unsafe_get wre (pb + i)
                and pi = Array.unsafe_get wim (pb + i)
                and qr = Array.unsafe_get wre (qb + i)
                and qi = Array.unsafe_get wim (qb + i) in
                let uqr = (ur *. qr) -. (ui *. qi)
                and uqi = (ur *. qi) +. (ui *. qr) in
                Array.unsafe_set wre (pb + i) ((c *. pr) -. (s *. uqr));
                Array.unsafe_set wim (pb + i) ((c *. pi) -. (s *. uqi));
                Array.unsafe_set wre (qb + i) ((s *. pr) +. (c *. uqr));
                Array.unsafe_set wim (qb + i) ((s *. pi) +. (c *. uqi))
              done;
              let cc = c *. c and ss = s *. s and cs2 = 2.0 *. c *. s in
              norms2.(p) <- (cc *. alpha) -. (cs2 *. ag) +. (ss *. beta);
              norms2.(q) <- (ss *. alpha) +. (cs2 *. ag) +. (cc *. beta)
            end
          end
        done
      done
    done;
    let (_ : sweep_outcome) =
      note_outcome ~rows:m ~cols:n
        { sweeps = !sweeps; converged = !converged }
    in
    (* Recompute the winning norm from scratch: the cached value carries
       the sweep's incremental rounding. *)
    let best = ref 0.0 in
    for q = 0 to n - 1 do
      let qb = q * m in
      let acc = ref 0.0 in
      for i = 0 to m - 1 do
        let re = Array.unsafe_get wre (qb + i)
        and im = Array.unsafe_get wim (qb + i) in
        acc := !acc +. (re *. re) +. (im *. im)
      done;
      if !acc > !best then best := !acc
    done;
    Float.sqrt !best
  end

let norm2_complex (re, im) =
  let rows = re.Mat.rows and cols = re.Mat.cols in
  if im.Mat.rows <> rows || im.Mat.cols <> cols then
    invalid_arg "Svd.norm2_complex: real and imaginary parts differ in size";
  (* Orthogonalize the smaller column set: transposing a complex matrix
     permutes nothing spectrally (sigma(A^T) = sigma(A)). *)
  let m, n, index =
    if rows >= cols then (rows, cols, fun i q -> (i * cols) + q)
    else (cols, rows, fun i q -> (q * cols) + i)
  in
  let wre = Array.make (n * m) 0.0 and wim = Array.make (n * m) 0.0 in
  for q = 0 to n - 1 do
    let qb = q * m in
    for i = 0 to m - 1 do
      let k = index i q in
      Array.unsafe_set wre (qb + i) re.Mat.data.(k);
      Array.unsafe_set wim (qb + i) im.Mat.data.(k)
    done
  done;
  norm2_planar ~m ~n wre wim

let rank a =
  let s = singular_values a in
  if Vec.dim s = 0 then 0
  else begin
    let m = Float.of_int (max a.Mat.rows a.Mat.cols) in
    let cutoff = epsilon_float *. m *. s.(0) in
    Array.fold_left (fun acc x -> if x > cutoff then acc + 1 else acc) 0 s
  end
