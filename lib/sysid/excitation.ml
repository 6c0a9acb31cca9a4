type t = { seed : int; hold : int }

let multilevel_state st { hold; _ } ~levels ~length =
  if Array.length levels = 0 then invalid_arg "Excitation: no levels";
  if hold <= 0 then invalid_arg "Excitation: hold must be positive";
  let current = ref levels.(0) in
  Linalg.Vec.init length (fun i ->
      if i mod hold = 0 then
        current := levels.(Random.State.int st (Array.length levels));
      !current)

let multilevel t ~levels ~length =
  let st = Random.State.make [| t.seed; Array.length levels; length |] in
  multilevel_state st t ~levels ~length

let channels t ~levels ~length =
  let n = Array.length levels in
  let per_channel =
    Array.mapi
      (fun c lv ->
        let st = Random.State.make [| t.seed; c; 7919 |] in
        multilevel_state st t ~levels:lv ~length)
      levels
  in
  Array.init length (fun i -> Linalg.Vec.init n (fun c -> per_channel.(c).(i)))
