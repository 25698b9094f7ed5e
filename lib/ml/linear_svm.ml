open Mcml_logic

type t = { w : float array; b : float }
type params = { lambda : float; epochs : int }

let default_params = { lambda = 1e-4; epochs = 30 }

let train ?(params = default_params) ~rng (ds : Dataset.t) =
  let n = Dataset.size ds in
  if n = 0 then invalid_arg "Linear_svm.train: empty dataset";
  let k = ds.Dataset.nfeatures in
  let w = Array.make k 0.0 in
  let b = ref 0.0 in
  let t = ref 0 in
  let dot features =
    let acc = ref !b in
    for f = 0 to k - 1 do
      if features.(f) then acc := !acc +. w.(f)
    done;
    !acc
  in
  for _epoch = 1 to params.epochs do
    for _step = 1 to n do
      incr t;
      let i = Splitmix.int rng n in
      let s = ds.Dataset.samples.(i) in
      let y = if s.Dataset.label then 1.0 else -1.0 in
      let eta = 1.0 /. (params.lambda *. float_of_int !t) in
      let margin = y *. dot s.Dataset.features in
      (* w <- (1 - eta*lambda) w  [+ eta*y*x  if margin < 1] *)
      let shrink = 1.0 -. (eta *. params.lambda) in
      for f = 0 to k - 1 do
        w.(f) <- w.(f) *. shrink
      done;
      if margin < 1.0 then begin
        for f = 0 to k - 1 do
          if s.Dataset.features.(f) then w.(f) <- w.(f) +. (eta *. y)
        done;
        b := !b +. (eta *. y)
      end
    done
  done;
  { w; b = !b }

let decision_value t features =
  let acc = ref t.b in
  for f = 0 to Array.length t.w - 1 do
    if features.(f) then acc := !acc +. t.w.(f)
  done;
  !acc

let predict t features = decision_value t features > 0.0
