type channel = { minimum : float; maximum : float; step : float }

let make ~minimum ~maximum ~step =
  if not (minimum < maximum) then
    invalid_arg "Quantize.make: minimum must be below maximum";
  if not (step > 0.0) then invalid_arg "Quantize.make: step must be positive";
  { minimum; maximum; step }

let count c =
  1 + int_of_float (Float.round ((c.maximum -. c.minimum) /. c.step))

let levels c =
  Array.init (count c) (fun i ->
      Float.min c.maximum (c.minimum +. (Float.of_int i *. c.step)))

let[@inline] project c x =
  let clamped = Float.min c.maximum (Float.max c.minimum x) in
  let k = Float.round ((clamped -. c.minimum) /. c.step) in
  Float.min c.maximum (c.minimum +. (k *. c.step))

(* [project] inlines here, so the loop passes no boxed float. *)
let project_array cs xs =
  for i = 0 to Array.length xs - 1 do
    xs.(i) <- project cs.(i) xs.(i)
  done

let quantization_radius c = c.step /. 2.0

let span c = c.maximum -. c.minimum

let relative_uncertainty c = quantization_radius c /. (span c /. 2.0)
