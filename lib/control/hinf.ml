open Linalg

type partition = { nw : int; nu : int; nz : int; ny : int }

type plant = { sys : Ss.t; part : partition }

type result = { controller : Ss.t; gamma : float; achieved_norm : float }

exception Synthesis_failed of string

let validate_partition { sys; part } =
  if part.nw < 0 || part.nu <= 0 || part.nz < 0 || part.ny <= 0 then
    invalid_arg "Hinf: partition sizes must be positive";
  if Ss.inputs sys <> part.nw + part.nu then
    invalid_arg "Hinf: inputs <> nw + nu";
  if Ss.outputs sys <> part.nz + part.ny then
    invalid_arg "Hinf: outputs <> nz + ny"

type pieces = {
  a : Mat.t;
  b1 : Mat.t;
  b2 : Mat.t;
  c1 : Mat.t;
  c2 : Mat.t;
  d11 : Mat.t;
  d12 : Mat.t;
  d21 : Mat.t;
  d22 : Mat.t;
}

let extract { sys; part } =
  let n = Ss.order sys in
  let { nw; nu; nz; ny } = part in
  {
    a = sys.Ss.a;
    b1 = Mat.sub_matrix sys.Ss.b 0 0 n nw;
    b2 = Mat.sub_matrix sys.Ss.b 0 nw n nu;
    c1 = Mat.sub_matrix sys.Ss.c 0 0 nz n;
    c2 = Mat.sub_matrix sys.Ss.c nz 0 ny n;
    d11 = Mat.sub_matrix sys.Ss.d 0 0 nz nw;
    d12 = Mat.sub_matrix sys.Ss.d 0 nw nz nu;
    d21 = Mat.sub_matrix sys.Ss.d nz 0 ny nw;
    d22 = Mat.sub_matrix sys.Ss.d nz nw ny nu;
  }

let close_loop plant k = Ss.lft_lower plant.sys k

(* Ensure D12 has full column rank and D21 full row rank by augmenting the
   plant with epsilon-weighted control penalties / measurement noise. The
   controller synthesized for the augmented plant is validated against the
   original plant, so the perturbation only needs to make synthesis
   well-posed, not be negligible in theory. *)
let regularized eps plant =
  let p = extract plant in
  let { nw; nu; nz; ny } = plant.part in
  let n = Ss.order plant.sys in
  let need_d12 = Svd.rank p.d12 < nu in
  let need_d21 = Svd.rank p.d21 < ny in
  if (not need_d12) && not need_d21 then plant
  else begin
    let nz' = if need_d12 then nz + nu else nz in
    let nw' = if need_d21 then nw + ny else nw in
    (* New input layout: [w; w_extra; u]; output: [z; z_extra; y]. *)
    let b1' = if need_d21 then Mat.hcat p.b1 (Mat.create n ny) else p.b1 in
    let c1' = if need_d12 then Mat.vcat p.c1 (Mat.create nu n) else p.c1 in
    let d11' =
      let base = p.d11 in
      let base = if need_d21 then Mat.hcat base (Mat.create nz ny) else base in
      if need_d12 then Mat.vcat base (Mat.create nu (Mat.dims base |> snd))
      else base
    in
    let d12' =
      if need_d12 then Mat.vcat p.d12 (Mat.scalar nu eps) else p.d12
    in
    let d21' =
      if need_d21 then Mat.hcat p.d21 (Mat.scale eps (Mat.identity ny))
      else p.d21
    in
    let b = Mat.hcat b1' p.b2 in
    let c = Mat.vcat c1' p.c2 in
    let d =
      Mat.blocks [ [ d11'; d12' ]; [ d21'; p.d22 ] ]
    in
    {
      sys =
        Ss.make ~domain:plant.sys.Ss.domain ~a:p.a ~b ~c ~d ();
      part = { nw = nw'; nu; nz = nz'; ny };
    }
  end

(* DGKF central controller at a fixed gamma for a continuous plant with
   full-rank D12/D21. Returns None when a Riccati condition fails. *)
let central_controller_continuous plant gamma =
  let p = extract plant in
  let n = Ss.order plant.sys in
  let { nu; ny; _ } = plant.part in
  let g2 = gamma *. gamma in
  (* Input/output scalings making D12^T D12 = I and D21 D21^T = I. *)
  let u1, s1, v1 = Svd.decompose p.d12 in
  if s1.(nu - 1) <= 0.0 then None
  else begin
    let s1_inv = Mat.diag (Array.map (fun x -> 1.0 /. x) s1) in
    let su = Mat.mul v1 s1_inv in
    let b2n = Mat.mul p.b2 su in
    let d12n = u1 in
    let u2, s2, v2 = Svd.decompose p.d21 in
    if s2.(ny - 1) <= 0.0 then None
    else begin
      let s2_inv = Mat.diag (Array.map (fun x -> 1.0 /. x) s2) in
      let sy = Mat.mul s2_inv (Mat.transpose u2) in
      let c2n = Mat.mul sy p.c2 in
      let d21n = Mat.transpose v2 in
      let at = Mat.sub p.a (Mat.mul3 b2n (Mat.transpose d12n) p.c1) in
      let proj12 =
        Mat.sub (Mat.identity (Mat.dims p.c1 |> fst))
          (Mat.mul d12n (Mat.transpose d12n))
      in
      let c1t_sq = Mat.mul3 (Mat.transpose p.c1) proj12 p.c1 in
      let hx =
        Mat.blocks
          [
            [
              at;
              Mat.sub
                (Mat.scale (1.0 /. g2) (Mat.mul p.b1 (Mat.transpose p.b1)))
                (Mat.mul b2n (Mat.transpose b2n));
            ];
            [ Mat.neg c1t_sq; Mat.neg (Mat.transpose at) ];
          ]
      in
      (* The stabilizing solution of a Riccati Hamiltonian, if it is
         positive semidefinite. *)
      let riccati h =
        match Care.solve_hamiltonian h with
        | exception (Care.No_solution _ | Lu.Singular) -> None
        | x -> if Eig.is_positive_semidefinite x then Some x else None
      in
      (* Y is formed and solved only once X has passed. *)
      match riccati hx with
      | None -> None
      | Some x -> (
        let ab = Mat.sub p.a (Mat.mul3 p.b1 (Mat.transpose d21n) c2n) in
        let proj21 =
          Mat.sub (Mat.identity (Mat.dims p.b1 |> snd))
            (Mat.mul (Mat.transpose d21n) d21n)
        in
        let b1t_sq = Mat.mul3 p.b1 proj21 (Mat.transpose p.b1) in
        let hy =
          Mat.blocks
            [
              [
                Mat.transpose ab;
                Mat.sub
                  (Mat.scale (1.0 /. g2) (Mat.mul (Mat.transpose p.c1) p.c1))
                  (Mat.mul (Mat.transpose c2n) c2n);
              ];
              [ Mat.neg b1t_sq; Mat.neg ab ];
            ]
        in
        match riccati hy with
        | None -> None
        | Some y ->
          if Eig.spectral_radius (Mat.mul x y) >= g2 *. 0.999999 then None
          else begin
            let f =
              Mat.neg
                (Mat.add (Mat.mul (Mat.transpose b2n) x)
                   (Mat.mul (Mat.transpose d12n) p.c1))
            in
            let l =
              Mat.neg
                (Mat.add (Mat.mul y (Mat.transpose c2n))
                   (Mat.mul p.b1 (Mat.transpose d21n)))
            in
            match
              Lu.inv (Mat.sub (Mat.identity n) (Mat.scale (1.0 /. g2) (Mat.mul y x)))
            with
            | exception Lu.Singular -> None
            | z ->
              let zl = Mat.mul z l in
              let ahat =
                Mat.add
                  (Mat.add
                     (Mat.add p.a
                        (Mat.scale (1.0 /. g2)
                           (Mat.mul3 p.b1 (Mat.transpose p.b1) x)))
                     (Mat.mul b2n f))
                  (Mat.mul zl
                     (Mat.add c2n
                        (Mat.scale (1.0 /. g2)
                           (Mat.mul3 d21n (Mat.transpose p.b1) x))))
              in
              (* Map the normalized controller back: u = su * u~, y~ = sy * y,
                 then undo the D22 feedthrough. *)
              let bk = Mat.mul (Mat.neg zl) sy in
              let ck = Mat.mul su f in
              (* D22 feedthrough correction: the formulas above assume the
                 measurement does not see u directly, so close that loop:
                 A_K = ahat - B_K D22 C_K (controller D is zero). *)
              let ak = Mat.sub ahat (Mat.mul3 bk p.d22 ck) in
              Some
                (Ss.make ~domain:Ss.Continuous ~a:ak ~b:bk ~c:ck
                   ~d:(Mat.create nu ny) ())
          end)
    end
  end

let gamma_exceptions_metric = Obs.Metrics.counter "hinf.gamma_exceptions"

(* An exception while trying one gamma means that gamma is infeasible;
   under the collector it is counted and named, so it is not silent. *)
let gamma_exception stage gamma e =
  if Obs.Collector.enabled () then begin
    Obs.Metrics.incr gamma_exceptions_metric;
    Obs.Collector.debug ~name:"hinf.gamma_exception"
      [
        ("stage", Obs.Json.String stage);
        ("gamma", Obs.Json.Float gamma);
        ("exception", Obs.Json.String (Printexc.to_string e));
      ]
  end;
  None

(* The closed loop must be stable with its grid peak within 1.05 gamma;
   the walk stops as soon as it sees a value above that. *)
let validated plant k gamma =
  match close_loop plant k with
  | cl -> (
    let bound = (gamma *. 1.05) +. 1e-9 in
    match Ss.hinf_norm_within ~bound cl with
    | Some norm when norm <= bound -> Some norm
    | Some _ | None -> None)
  | exception e -> gamma_exception "close_loop" gamma e

let synthesize_at_full plant gamma =
  validate_partition plant;
  let reg = regularized 1e-6 plant in
  let continuous_plant, back =
    match plant.sys.Ss.domain with
    | Ss.Continuous -> (reg, fun k -> k)
    | Ss.Discrete period ->
      ( { reg with sys = Discretize.d2c_tustin reg.sys },
        fun k -> Discretize.c2d_tustin k period )
  in
  match central_controller_continuous continuous_plant gamma with
  | None -> None
  | Some k_cont ->
    let k = back k_cont in
    (match validated plant k gamma with
    | Some norm -> Some (k, norm)
    | None -> None)
  | exception e -> gamma_exception "central_controller" gamma e

let synthesize_at plant gamma = Option.map fst (synthesize_at_full plant gamma)

let synthesis_calls_metric = Obs.Metrics.counter "hinf.synthesize_calls"
let gamma_steps_metric = Obs.Metrics.counter "hinf.gamma_steps"

let synthesize plant =
  validate_partition plant;
  let t0 = if Obs.Collector.enabled () then Obs.Collector.now () else 0.0 in
  (* Find a feasible upper bound by doubling from 1. *)
  let upper = ref 1.0 in
  let best = ref None in
  let tries = ref 0 in
  while !best = None && !tries < 24 do
    incr tries;
    (match synthesize_at_full plant !upper with
    | Some (k, norm) -> best := Some (k, !upper, norm)
    | None -> upper := !upper *. 2.0)
  done;
  match !best with
  | None -> raise (Synthesis_failed "no feasible gamma found")
  | Some (k0, g0, n0) ->
    let lo = ref 1e-3 and hi = ref g0 in
    let best_k = ref k0 and best_g = ref g0 and best_n = ref n0 in
    let iterations = ref 0 in
    while (!hi -. !lo) /. !hi > 1e-3 && !iterations < 60 do
      incr iterations;
      let mid = Float.sqrt (!lo *. !hi) in
      match synthesize_at_full plant mid with
      | Some (k, norm) ->
        hi := mid;
        best_k := k;
        best_g := mid;
        best_n := norm
      | None -> lo := mid
    done;
    if Obs.Collector.enabled () then begin
      Obs.Metrics.incr synthesis_calls_metric;
      Obs.Metrics.incr ~by:(!tries + !iterations) gamma_steps_metric;
      Obs.Collector.record_span ~name:"hinf.synthesize"
        ~dur_s:(Obs.Collector.now () -. t0)
        [
          ("gamma", Obs.Json.Float !best_g);
          ("achieved_norm", Obs.Json.Float !best_n);
          ("feasibility_steps", Obs.Json.Int !tries);
          ("bisection_steps", Obs.Json.Int !iterations);
        ]
    end;
    { controller = !best_k; gamma = !best_g; achieved_norm = !best_n }
