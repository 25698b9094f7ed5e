open Mcml_logic

(* Every parameter lives in [theta], the one vector Adam updates in
   place: the first layer input-major ([f * hidden + i] is input [f]'s
   weight into unit [i], so a set input adds one contiguous slice), then
   the hidden biases, the output weights and the output bias. *)
type t = { inputs : int; hidden : int; theta : float array }

type params = { hidden : int; epochs : int; batch : int; learning_rate : float }

let default_params = { hidden = 64; epochs = 40; batch = 32; learning_rate = 5e-3 }

let sigmoid z = 1.0 /. (1.0 +. exp (-.z))
let b1_off ~k ~h = k * h
let w2_off ~k ~h = (k * h) + h
let b2_off ~k ~h = (k * h) + h + h

(* Adds input [f]'s slice to the hidden pre-activations.  Called for
   each set input in ascending order on [pre] loaded with the biases, it
   adds each unit's terms in the order a unit-major dot product would. *)
let add_slice theta ~h f pre =
  let base = f * h in
  for i = 0 to h - 1 do
    pre.(i) <- pre.(i) +. theta.(base + i)
  done

let logit theta ~k ~h pre =
  let w2 = w2_off ~k ~h in
  let out = ref theta.(b2_off ~k ~h) in
  for i = 0 to h - 1 do
    out := !out +. (theta.(w2 + i) *. Float.max 0.0 pre.(i))
  done;
  !out

(* Minimal Adam state for a flat parameter vector. *)
type adam = { mutable t : int; m : float array; v : float array }

let adam_make n = { t = 0; m = Array.make n 0.0; v = Array.make n 0.0 }

let adam_step st ~lr (theta : float array) (grad : float array) =
  let beta1 = 0.9 and beta2 = 0.999 and eps = 1e-8 in
  st.t <- st.t + 1;
  let t = float_of_int st.t in
  let bc1 = 1.0 -. (beta1 ** t) and bc2 = 1.0 -. (beta2 ** t) in
  for i = 0 to Array.length grad - 1 do
    let g = grad.(i) in
    st.m.(i) <- (beta1 *. st.m.(i)) +. ((1.0 -. beta1) *. g);
    st.v.(i) <- (beta2 *. st.v.(i)) +. ((1.0 -. beta2) *. g *. g);
    let mhat = st.m.(i) /. bc1 and vhat = st.v.(i) /. bc2 in
    theta.(i) <- theta.(i) -. (lr *. mhat /. (sqrt vhat +. eps))
  done

let set_features x =
  let acc = ref [] in
  for f = Array.length x - 1 downto 0 do
    if x.(f) then acc := f :: !acc
  done;
  Array.of_list !acc

let train ?(params = default_params) ~rng (ds : Dataset.t) =
  let n = Dataset.size ds in
  if n = 0 then invalid_arg "Mlp.train: empty dataset";
  let k = ds.Dataset.nfeatures and h = params.hidden in
  let gauss () =
    (* Box-Muller *)
    let u1 = Float.max 1e-12 (Splitmix.float rng) and u2 = Splitmix.float rng in
    sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)
  in
  let b1 = b1_off ~k ~h and w2 = w2_off ~k ~h and b2 = b2_off ~k ~h in
  let nparams = b2 + 1 in
  let theta = Array.make nparams 0.0 in
  (* drawn unit by unit, as a unit-major layout would be filled *)
  let scale1 = sqrt (2.0 /. float_of_int k) in
  for i = 0 to h - 1 do
    for f = 0 to k - 1 do
      theta.((f * h) + i) <- gauss () *. scale1
    done
  done;
  for i = 0 to h - 1 do
    theta.(w2 + i) <- gauss () *. sqrt (2.0 /. float_of_int h)
  done;
  let grads = Array.make nparams 0.0 in
  let st = adam_make nparams in
  let active = Array.map (fun s -> set_features s.Dataset.features) ds.Dataset.samples in
  let pre = Array.make h 0.0 and dh = Array.make h 0.0 in
  let order = Array.init n (fun i -> i) in
  for _epoch = 1 to params.epochs do
    (* reshuffle *)
    for i = n - 1 downto 1 do
      let j = Splitmix.int rng (i + 1) in
      let tmp = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- tmp
    done;
    let idx = ref 0 in
    while !idx < n do
      let batch_end = min n (!idx + params.batch) in
      Array.fill grads 0 nparams 0.0;
      let bsize = float_of_int (batch_end - !idx) in
      for s = !idx to batch_end - 1 do
        let x = active.(order.(s)) in
        let y = if ds.Dataset.samples.(order.(s)).Dataset.label then 1.0 else 0.0 in
        (* forward *)
        Array.blit theta b1 pre 0 h;
        for j = 0 to Array.length x - 1 do
          add_slice theta ~h x.(j) pre
        done;
        let p = sigmoid (logit theta ~k ~h pre) in
        (* backward: dL/dout = p - y (logistic loss).  An inactive unit
           adds dh = +0.0, which leaves its accumulators as they are:
           each starts at +0.0 and so is never -0.0. *)
        let dout = (p -. y) /. bsize in
        grads.(b2) <- grads.(b2) +. dout;
        for i = 0 to h - 1 do
          grads.(w2 + i) <- grads.(w2 + i) +. (dout *. Float.max 0.0 pre.(i));
          dh.(i) <- (if pre.(i) > 0.0 then dout *. theta.(w2 + i) else 0.0);
          grads.(b1 + i) <- grads.(b1 + i) +. dh.(i)
        done;
        for j = 0 to Array.length x - 1 do
          let base = x.(j) * h in
          for i = 0 to h - 1 do
            grads.(base + i) <- grads.(base + i) +. dh.(i)
          done
        done
      done;
      adam_step st ~lr:params.learning_rate theta grads;
      idx := batch_end
    done
  done;
  { inputs = k; hidden = h; theta }

let probability (t : t) features =
  let k = t.inputs and h = t.hidden in
  let pre = Array.sub t.theta (b1_off ~k ~h) h in
  for f = 0 to k - 1 do
    if features.(f) then add_slice t.theta ~h f pre
  done;
  sigmoid (logit t.theta ~k ~h pre)

let predict t features = probability t features > 0.5
