(* Householder reduction to upper Hessenberg form. Only the Hessenberg
   matrix is needed (eigenvalues, not eigenvectors), so the orthogonal
   transform is not accumulated. *)
let hessenberg a =
  if not (Mat.is_square a) then invalid_arg "Eig.hessenberg: non-square";
  let n = a.Mat.rows in
  let h = Mat.copy a in
  let hd = h.Mat.data in
  for k = 0 to n - 3 do
    let x =
      Array.init (n - k - 1) (fun i ->
          Array.unsafe_get hd (((k + 1 + i) * n) + k))
    in
    let normx = Vec.norm2 x in
    if normx > 1e-300 then begin
      let alpha = if x.(0) >= 0.0 then -.normx else normx in
      let v = Array.copy x in
      v.(0) <- v.(0) -. alpha;
      let vnorm = Vec.norm2 v in
      if vnorm > 1e-300 then begin
        let v = Vec.scale (1.0 /. vnorm) v in
        (* Left: rows k+1..n-1, all columns. *)
        for j = 0 to n - 1 do
          let dot = ref 0.0 in
          for i = 0 to n - k - 2 do
            dot :=
              !dot
              +. (Array.unsafe_get v i
                  *. Array.unsafe_get hd (((k + 1 + i) * n) + j))
          done;
          let d2 = 2.0 *. !dot in
          for i = 0 to n - k - 2 do
            let idx = ((k + 1 + i) * n) + j in
            Array.unsafe_set hd idx
              (Array.unsafe_get hd idx -. (d2 *. Array.unsafe_get v i))
          done
        done;
        (* Right: columns k+1..n-1, all rows (similarity transform). *)
        for i = 0 to n - 1 do
          let row = i * n in
          let dot = ref 0.0 in
          for j = 0 to n - k - 2 do
            dot :=
              !dot
              +. (Array.unsafe_get hd (row + k + 1 + j) *. Array.unsafe_get v j)
          done;
          let d2 = 2.0 *. !dot in
          for j = 0 to n - k - 2 do
            let idx = row + k + 1 + j in
            Array.unsafe_set hd idx
              (Array.unsafe_get hd idx -. (d2 *. Array.unsafe_get v j))
          done
        done
      end
    end;
    (* Zero out the entries below the subdiagonal explicitly. *)
    for i = k + 2 to n - 1 do
      Mat.set h i k 0.0
    done
  done;
  h

open Complex

let cnorm = Complex.norm

let qr_calls_metric = Obs.Metrics.counter "eig.calls"
let qr_iters_metric = Obs.Metrics.counter "eig.qr_iterations"

(* ------------------------------------------------------------------ *)
(* Real Francis implicit double-shift QR                               *)
(* ------------------------------------------------------------------ *)

(* Eigenvalues of a real upper Hessenberg matrix by the Francis implicit
   double-shift iteration (EISPACK hqr lineage). Works on the real matrix
   throughout — no complex arithmetic until the very end, when complex
   conjugate pairs are extracted from irreducible trailing 2x2 blocks.

   Per sweep the Wilkinson double shift (both eigenvalues of the trailing
   2x2) is applied implicitly: a 3x1 "bulge" is created at the top of the
   active block and chased down the subdiagonal with Householder
   3-reflectors, costing O(n^2) real flops per sweep versus the complex
   path's O(n^2) complex multiplies (a ~6x flop and boxing gap).

   Deflation is aggressive on two fronts: the active block's lower edge
   [nn] retreats whenever trailing 1x1/2x2 blocks split off, and the scan
   for the block start [l] walks the whole subdiagonal from the bottom,
   committing hard zeros as it finds negligible entries — so interior
   zero subdiagonals split the problem into independent sub-blocks for
   free. Stalls are broken with the classic exceptional shift at every
   10th iteration without deflation; 30 * max(10, n) such iterations
   (LAPACK dlahqr's budget) are a convergence failure. The real
   embedding of a complex matrix (its spectrum plus the conjugate) can
   need more than two exceptional shifts. [h] is destroyed. *)
let francis_hessenberg_eigenvalues h =
  let n = h.Mat.rows in
  let hd = h.Mat.data in
  let get i j = Array.unsafe_get hd ((i * n) + j) in
  let set i j x = Array.unsafe_set hd ((i * n) + j) x in
  let wr = Array.make n 0.0 and wi = Array.make n 0.0 in
  let eps = 1e-13 in
  (* Fallback scale for negligibility tests when both diagonal
     neighbours of a subdiagonal entry vanish. *)
  let anorm = ref 0.0 in
  for i = 0 to n - 1 do
    for j = max 0 (i - 1) to n - 1 do
      anorm := !anorm +. Float.abs (get i j)
    done
  done;
  let anorm = if !anorm = 0.0 then 1.0 else !anorm in
  let iter_count = ref 0 in
  let max_its = 30 * max 10 n in
  (* [t] accumulates exceptional shifts subtracted from the diagonal so
     the eigenvalues can be restored on extraction. *)
  let t = ref 0.0 in
  let nn = ref (n - 1) in
  while !nn >= 0 do
    let its = ref 0 in
    let deflated = ref false in
    while not !deflated do
      (* Scan from the bottom for a negligible subdiagonal; commit the
         zero so the split is permanent. [l] is the active block start. *)
      let l = ref !nn in
      let scanning = ref true in
      while !scanning && !l > 0 do
        let s = Float.abs (get (!l - 1) (!l - 1)) +. Float.abs (get !l !l) in
        let s = if s = 0.0 then anorm else s in
        if Float.abs (get !l (!l - 1)) <= eps *. s then begin
          set !l (!l - 1) 0.0;
          scanning := false
        end
        else decr l
      done;
      let l = !l in
      let x = get !nn !nn in
      if l = !nn then begin
        (* 1x1 block: one real eigenvalue. *)
        wr.(!nn) <- x +. !t;
        wi.(!nn) <- 0.0;
        nn := !nn - 1;
        deflated := true
      end
      else begin
        let y = get (!nn - 1) (!nn - 1) in
        let w = get !nn (!nn - 1) *. get (!nn - 1) !nn in
        if l = !nn - 1 then begin
          (* 2x2 block: a real pair or a complex conjugate pair. *)
          let p = 0.5 *. (y -. x) in
          let q = (p *. p) +. w in
          let z = Float.sqrt (Float.abs q) in
          let x = x +. !t in
          if q >= 0.0 then begin
            (* Real pair, computed stably: larger root by magnitude
               first, the other via the product w. *)
            let z = p +. (if p >= 0.0 then z else -.z) in
            wr.(!nn - 1) <- x +. z;
            wr.(!nn) <- (if z <> 0.0 then x -. (w /. z) else x +. z);
            wi.(!nn - 1) <- 0.0;
            wi.(!nn) <- 0.0
          end
          else begin
            wr.(!nn - 1) <- x +. p;
            wr.(!nn) <- x +. p;
            wi.(!nn - 1) <- z;
            wi.(!nn) <- -.z
          end;
          nn := !nn - 2;
          deflated := true
        end
        else begin
          (* Active block of order >= 3: one Francis double-shift sweep. *)
          if !its = max_its then
            failwith "Eig.eigenvalues: QR iteration did not converge";
          incr iter_count;
          let x = ref x and y = ref y and w = ref w in
          if !its > 0 && !its mod 10 = 0 then begin
            (* Exceptional shift: translate the spectrum and use an
               ad-hoc shift built from the last two subdiagonals. From
               the third one on, every other shift sits below the
               translated spectrum instead of above it: a stall that
               survives one side rarely survives both. *)
            t := !t +. !x;
            for i = 0 to !nn do
              set i i (get i i -. !x)
            done;
            let s =
              Float.abs (get !nn (!nn - 1))
              +. Float.abs (get (!nn - 1) (!nn - 2))
            in
            let side =
              if !its >= 30 && (!its / 10) mod 2 = 1 then -0.75 else 0.75
            in
            x := side *. s;
            y := !x;
            w := -0.4375 *. s *. s
          end;
          incr its;
          (* Look for two consecutive small subdiagonals from the bottom
             up: starting the chase at [m] > [l] skips the quiet top of
             the block. (p, q, r) is the first column of the shifted
             polynomial (H - s1)(H - s2) e1, scaled. *)
          let p = ref 0.0 and q = ref 0.0 and r = ref 0.0 in
          let m = ref (!nn - 2) in
          let searching = ref true in
          while !searching do
            let z = get !m !m in
            let rr = !x -. z and ss = !y -. z in
            p := (((rr *. ss) -. !w) /. get (!m + 1) !m) +. get !m (!m + 1);
            q := get (!m + 1) (!m + 1) -. z -. rr -. ss;
            r := get (!m + 2) (!m + 1);
            let s = Float.abs !p +. Float.abs !q +. Float.abs !r in
            p := !p /. s;
            q := !q /. s;
            r := !r /. s;
            if !m = l then searching := false
            else begin
              let u =
                Float.abs (get !m (!m - 1))
                *. (Float.abs !q +. Float.abs !r)
              in
              let v =
                Float.abs !p
                *. (Float.abs (get (!m - 1) (!m - 1))
                   +. Float.abs z
                   +. Float.abs (get (!m + 1) (!m + 1)))
              in
              if u <= eps *. v then searching := false else decr m
            end
          done;
          let m = !m in
          for i = m + 2 to !nn do
            set i (i - 2) 0.0
          done;
          for i = m + 3 to !nn do
            set i (i - 3) 0.0
          done;
          (* Chase the 3x1 bulge from row m down to the bottom of the
             block with Householder reflectors on rows/cols k..k+2. *)
          for k = m to !nn - 1 do
            if k <> m then begin
              p := get k (k - 1);
              q := get (k + 1) (k - 1);
              r := (if k <> !nn - 1 then get (k + 2) (k - 1) else 0.0)
            end;
            let scale = Float.abs !p +. Float.abs !q +. Float.abs !r in
            if k <> m && scale <> 0.0 then begin
              p := !p /. scale;
              q := !q /. scale;
              r := !r /. scale
            end;
            let s =
              let mag =
                Float.sqrt ((!p *. !p) +. (!q *. !q) +. (!r *. !r))
              in
              if !p >= 0.0 then mag else -.mag
            in
            if s <> 0.0 then begin
              if k = m then begin
                if l <> m then set k (k - 1) (-.(get k (k - 1)))
              end
              else set k (k - 1) (-.s *. scale);
              p := !p +. s;
              let hx = !p /. s and hy = !q /. s and hz = !r /. s in
              let hq = !q /. !p and hr = !r /. !p in
              (* Row operation on rows k, k+1, k+2. *)
              for j = k to !nn do
                let pj =
                  get k j +. (hq *. get (k + 1) j)
                  +. (if k <> !nn - 1 then hr *. get (k + 2) j else 0.0)
                in
                if k <> !nn - 1 then
                  set (k + 2) j (get (k + 2) j -. (pj *. hz));
                set (k + 1) j (get (k + 1) j -. (pj *. hy));
                set k j (get k j -. (pj *. hx))
              done;
              (* Column operation on columns k, k+1, k+2. *)
              let mmin = if !nn < k + 3 then !nn else k + 3 in
              for i = l to mmin do
                let pi =
                  (hx *. get i k) +. (hy *. get i (k + 1))
                  +. (if k <> !nn - 1 then hz *. get i (k + 2) else 0.0)
                in
                if k <> !nn - 1 then
                  set i (k + 2) (get i (k + 2) -. (pi *. hr));
                set i (k + 1) (get i (k + 1) -. (pi *. hq));
                set i k (get i k -. pi)
              done
            end
          done
        end
      end
    done
  done;
  if Obs.Collector.enabled () then
    Obs.Metrics.incr ~by:!iter_count qr_iters_metric;
  Array.init n (fun i -> { re = wr.(i); im = wi.(i) })

let eigenvalues a =
  if not (Mat.is_square a) then invalid_arg "Eig.eigenvalues: non-square";
  let n = a.Mat.rows in
  if Obs.Collector.enabled () then Obs.Metrics.incr qr_calls_metric;
  if n = 0 then [||]
  else if n = 1 then [| { re = Mat.get a 0 0; im = 0.0 } |]
  else francis_hessenberg_eigenvalues (hessenberg a)

let spectral_radius a =
  Array.fold_left (fun acc z -> Float.max acc (cnorm z)) 0.0 (eigenvalues a)

let spectral_abscissa a =
  Array.fold_left (fun acc z -> Float.max acc z.re) neg_infinity (eigenvalues a)

(* Stability margin: an eigenvalue within 1e-9 of the boundary counts
   as unstable. *)
let margin = 1e-9

let is_stable_discrete a = spectral_radius a < 1.0 -. margin

let is_stable_continuous a = spectral_abscissa a < -.margin

(* Cyclic Jacobi for symmetric matrices: rotate away the off-diagonal
   entries until convergence. Quadratically convergent and unconditionally
   reliable, which matters more here than speed. Only the eigenvalues
   are wanted (the definiteness checks on the H-infinity bisection's hot
   loop), so the rotations are not accumulated. *)
let symmetric_values a =
  if not (Mat.is_square a) then invalid_arg "Eig.symmetric_values: non-square";
  let n = a.Mat.rows in
  let m = Mat.init n n (fun i j -> if j <= i then Mat.get a i j else Mat.get a j i) in
  let off_norm () =
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        acc := !acc +. (Mat.get m i j *. Mat.get m i j)
      done
    done;
    Float.sqrt (2.0 *. !acc)
  in
  let tol = 1e-12 *. Float.max 1.0 (Mat.norm_fro m) in
  let sweeps = ref 0 in
  while off_norm () > tol && !sweeps < 100 do
    incr sweeps;
    for p = 0 to n - 2 do
      for q = p + 1 to n - 1 do
        let apq = Mat.get m p q in
        if Float.abs apq > 1e-300 then begin
          let app = Mat.get m p p and aqq = Mat.get m q q in
          let theta = (aqq -. app) /. (2.0 *. apq) in
          let t =
            let sign = if theta >= 0.0 then 1.0 else -1.0 in
            sign /. (Float.abs theta +. Float.sqrt ((theta *. theta) +. 1.0))
          in
          let c = 1.0 /. Float.sqrt ((t *. t) +. 1.0) in
          let s = t *. c in
          let md = m.Mat.data in
          for k = 0 to n - 1 do
            let row = k * n in
            let mkp = Array.unsafe_get md (row + p)
            and mkq = Array.unsafe_get md (row + q) in
            Array.unsafe_set md (row + p) ((c *. mkp) -. (s *. mkq));
            Array.unsafe_set md (row + q) ((s *. mkp) +. (c *. mkq))
          done;
          let rp = p * n and rq = q * n in
          for k = 0 to n - 1 do
            let mpk = Array.unsafe_get md (rp + k)
            and mqk = Array.unsafe_get md (rq + k) in
            Array.unsafe_set md (rp + k) ((c *. mpk) -. (s *. mqk));
            Array.unsafe_set md (rq + k) ((s *. mpk) +. (c *. mqk))
          done
        end
      done
    done
  done;
  let values = Mat.diagonal m in
  Array.sort Float.compare values;
  values

let is_positive_semidefinite a =
  let values = symmetric_values (Mat.symmetrize a) in
  let floor = -1e-6 *. Float.max 1.0 (Mat.max_abs a) in
  Array.for_all (fun x -> x >= floor) values
