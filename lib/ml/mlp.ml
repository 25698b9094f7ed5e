open Mcml_logic

(* Every parameter lives in [theta], the one vector Adam updates in
   place: the first layer input-major ([f * hidden + i] is input [f]'s
   weight into unit [i], so a set input adds one contiguous slice), then
   the hidden biases, the output weights and the output bias.  The
   arithmetic over it is in mlp_stubs.c. *)
type t = { inputs : int; hidden : int; theta : Float.Array.t }

type params = { hidden : int; epochs : int; batch : int; learning_rate : float }

let default_params = { hidden = 64; epochs = 40; batch = 32; learning_rate = 5e-3 }

(* Everything one minibatch reads and writes, so that the kernel takes
   one block.  mlp_stubs.c reads the fields by position: keep the order. *)
type trainer = {
  k : int;
  h : int;
  lr : float;
  theta : Float.Array.t;
  m : Float.Array.t; (* Adam's first moments *)
  v : Float.Array.t; (* and second moments *)
  grad : Float.Array.t;
  pre : Float.Array.t; (* one sample's hidden pre-activations *)
  dh : Float.Array.t; (* and their gradients *)
  offsets : int array;
      (* sample [x]'s set features are [indices.(offsets.(x))] up to
         [indices.(offsets.(x + 1) - 1)], ascending *)
  indices : int array;
  labels : bool array;
  order : int array; (* the epoch's shuffle of the samples *)
}

(* [minibatch tr start stop step] trains on the samples [order.(start)]
   to [order.(stop - 1)], then takes Adam's step [step] (from 1). *)
external minibatch : trainer -> int -> int -> int -> unit = "mcml_mlp_minibatch"
[@@noalloc]

external probability_of_set : Float.Array.t -> int -> int array -> Float.Array.t -> float
  = "mcml_mlp_probability"

(* How many of [x]'s first [k] features are set; [write_set] writes
   them, ascending, into [dst] from [pos]. *)
let count_set ~k x =
  let n = ref 0 in
  for f = 0 to k - 1 do
    if x.(f) then incr n
  done;
  !n

let write_set ~k x dst pos =
  let j = ref pos in
  for f = 0 to k - 1 do
    if x.(f) then begin
      dst.(!j) <- f;
      incr j
    end
  done

let train ?(params = default_params) ~rng (ds : Dataset.t) =
  let n = Dataset.size ds in
  if n = 0 then invalid_arg "Mlp.train: empty dataset";
  if params.batch < 1 then invalid_arg "Mlp.train: batch must be positive";
  let k = ds.Dataset.nfeatures and h = params.hidden in
  let gauss () =
    (* Box-Muller *)
    let u1 = Float.max 1e-12 (Splitmix.float rng) and u2 = Splitmix.float rng in
    sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)
  in
  let w2 = (k * h) + h in
  let nparams = w2 + h + 1 in
  let theta = Float.Array.make nparams 0.0 in
  (* drawn unit by unit, as a unit-major layout would be filled *)
  let scale1 = sqrt (2.0 /. float_of_int k) in
  for i = 0 to h - 1 do
    for f = 0 to k - 1 do
      Float.Array.set theta ((f * h) + i) (gauss () *. scale1)
    done
  done;
  for i = 0 to h - 1 do
    Float.Array.set theta (w2 + i) (gauss () *. sqrt (2.0 /. float_of_int h))
  done;
  let samples = ds.Dataset.samples in
  let offsets = Array.make (n + 1) 0 in
  Array.iteri
    (fun x (s : Dataset.sample) ->
      if Array.length s.features <> k then
        invalid_arg
          (Printf.sprintf "Mlp.train: sample has %d features, expected %d"
             (Array.length s.features) k);
      offsets.(x + 1) <- offsets.(x) + count_set ~k s.features)
    samples;
  let indices = Array.make offsets.(n) 0 in
  Array.iteri (fun x (s : Dataset.sample) -> write_set ~k s.features indices offsets.(x)) samples;
  let tr =
    {
      k;
      h;
      lr = params.learning_rate;
      theta;
      m = Float.Array.make nparams 0.0;
      v = Float.Array.make nparams 0.0;
      grad = Float.Array.make nparams 0.0;
      pre = Float.Array.make h 0.0;
      dh = Float.Array.make h 0.0;
      offsets;
      indices;
      labels = Array.map (fun (s : Dataset.sample) -> s.label) samples;
      order = Array.init n (fun i -> i);
    }
  in
  let order = tr.order and step = ref 0 in
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
      let stop = min n (!idx + params.batch) in
      incr step;
      minibatch tr !idx stop !step;
      idx := stop
    done
  done;
  { inputs = k; hidden = h; theta }

let probability (t : t) features =
  let k = t.inputs in
  let set = Array.make (count_set ~k features) 0 in
  write_set ~k features set 0;
  probability_of_set t.theta k set (Float.Array.make t.hidden 0.0)

let predict t features = probability t features > 0.5
