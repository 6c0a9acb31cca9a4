type input = {
  name : string;
  channel : Control.Quantize.channel;
  weight : float;
}

type output = {
  name : string;
  lo : float;
  hi : float;
  bound_fraction : float;
  critical : bool;
  integral : bool;
}

type external_signal = { name : string; channel : Control.Quantize.channel }

let input ~name ~minimum ~maximum ~step ~weight =
  if weight <= 0.0 then invalid_arg "Signal.input: weight must be positive";
  { name; channel = Control.Quantize.make ~minimum ~maximum ~step; weight }

let output ~name ~lo ~hi ~bound_fraction ?(critical = false)
    ?(integral = true) () =
  if not (lo < hi) then invalid_arg "Signal.output: empty range";
  if bound_fraction <= 0.0 || bound_fraction > 1.0 then
    invalid_arg "Signal.output: bound_fraction must be in (0, 1]";
  { name; lo; hi; bound_fraction; critical; integral }

let bound_absolute o = o.bound_fraction *. (o.hi -. o.lo)

let center (ch : Control.Quantize.channel) = (ch.minimum +. ch.maximum) /. 2.0

let half_span ch = Control.Quantize.span ch /. 2.0

let center_output o = (o.lo +. o.hi) /. 2.0

let half_span_output o = (o.hi -. o.lo) /. 2.0

let normalize_input (i : input) x =
  (x -. center i.channel) /. half_span i.channel

let normalize_output o x = (x -. center_output o) /. half_span_output o

let normalize_external e x = (x -. center e.channel) /. half_span e.channel

let normalized_bound o = bound_absolute o /. half_span_output o

let quantization_uncertainty (i : input) =
  Control.Quantize.relative_uncertainty i.channel
