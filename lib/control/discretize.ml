open Linalg

(* Tustin with state scaling: given x' = Ax + Bu continuous,
   Ad = (I + AT/2)(I - AT/2)^-1, Bd = (I - AT/2)^-1 B sqrt(T),
   Cd = sqrt(T) C (I - AT/2)^-1, Dd = D + C (I - AT/2)^-1 B T/2.
   The sqrt(T) split makes the transform norm-preserving (an isometry of
   H-infinity), which is what the synthesis path needs. *)
let c2d_tustin sys period =
  (match sys.Ss.domain with
  | Ss.Continuous -> ()
  | Ss.Discrete _ -> invalid_arg "Discretize.c2d_tustin: already discrete");
  if period <= 0.0 then invalid_arg "Discretize.c2d_tustin: period must be > 0";
  let n = Ss.order sys in
  if n = 0 then { sys with Ss.domain = Ss.Discrete period }
  else begin
    let half = period /. 2.0 in
    let i = Mat.identity n in
    let m_minus = Mat.sub i (Mat.scale half sys.Ss.a) in
    let m_plus = Mat.add i (Mat.scale half sys.Ss.a) in
    let inv_minus = Lu.inv m_minus in
    let ad = Mat.mul m_plus inv_minus in
    let sqt = Float.sqrt period in
    let bd = Mat.scale sqt (Mat.mul inv_minus sys.Ss.b) in
    let cd = Mat.scale sqt (Mat.mul sys.Ss.c inv_minus) in
    let dd =
      Mat.add sys.Ss.d (Mat.scale half (Mat.mul3 sys.Ss.c inv_minus sys.Ss.b))
    in
    { Ss.a = ad; b = bd; c = cd; d = dd; domain = Ss.Discrete period }
  end

let d2c_tustin sys =
  match sys.Ss.domain with
  | Ss.Continuous -> invalid_arg "Discretize.d2c_tustin: already continuous"
  | Ss.Discrete period ->
    let n = Ss.order sys in
    if n = 0 then { sys with Ss.domain = Ss.Continuous }
    else begin
      let i = Mat.identity n in
      let m_plus = Mat.add i sys.Ss.a in
      let inv_plus = Lu.inv m_plus in
      let ac = Mat.scale (2.0 /. period) (Mat.mul (Mat.sub sys.Ss.a i) inv_plus) in
      let bc = Mat.scale (2.0 /. Float.sqrt period) (Mat.mul inv_plus sys.Ss.b) in
      let cc = Mat.scale (2.0 /. Float.sqrt period) (Mat.mul sys.Ss.c inv_plus) in
      let dc =
        Mat.sub sys.Ss.d (Mat.mul3 sys.Ss.c inv_plus sys.Ss.b)
      in
      { Ss.a = ac; b = bc; c = cc; d = dc; domain = Ss.Continuous }
    end
