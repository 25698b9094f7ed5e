(* Tests for the ML substrate: datasets, metrics, and the six model
   families. *)

open Mcml_logic
open Mcml_ml

let check = Alcotest.check
let qtest ?(count = 200) ?print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ?print ~name gen prop)

(* a labeled dataset for a known boolean target over k features *)
let dataset_of_target ~k ~n ~seed target =
  let rng = Splitmix.create seed in
  let samples =
    List.init n (fun _ ->
        let features = Array.init k (fun _ -> Splitmix.bool rng) in
        { Dataset.features; label = target features })
  in
  Dataset.make ~nfeatures:k samples

(* every input over [k] features *)
let inputs k = List.init (1 lsl k) (fun m -> Array.init k (fun i -> m land (1 lsl i) <> 0))

let parity3 f = (if f.(0) then 1 else 0) + (if f.(1) then 1 else 0) + (if f.(2) then 1 else 0) |> fun s -> s mod 2 = 1
let conj2 f = f.(0) && f.(1)
let majority3 f = (if f.(0) then 1 else 0) + (if f.(1) then 1 else 0) + (if f.(2) then 1 else 0) >= 2

(* --- dataset --------------------------------------------------------------- *)

let dataset_make_mismatch () =
  Alcotest.check_raises "feature length"
    (Invalid_argument "Dataset.make: sample has 2 features, expected 3") (fun () ->
      ignore (Dataset.make ~nfeatures:3 [ { Dataset.features = [| true; false |]; label = true } ]))

let dataset_split_properties =
  qtest ~count:100 "split: stratified, disjoint, exhaustive"
    QCheck2.Gen.(pair (int_bound 1000) (int_range 10 200))
    (fun (seed, n) ->
      let ds = dataset_of_target ~k:4 ~n ~seed majority3 in
      let rng = Splitmix.create (seed + 1) in
      let train, test = Dataset.split rng ~train_fraction:0.25 ds in
      Dataset.size train + Dataset.size test = Dataset.size ds
      && Dataset.size train > 0 && Dataset.size test > 0
      && Dataset.num_positive train + Dataset.num_positive test = Dataset.num_positive ds)

let dataset_split_ratio () =
  let ds = dataset_of_target ~k:4 ~n:1000 ~seed:3 majority3 in
  let rng = Splitmix.create 4 in
  let train, _ = Dataset.split rng ~train_fraction:0.10 ds in
  let frac = float_of_int (Dataset.size train) /. 1000.0 in
  if frac < 0.07 || frac > 0.13 then Alcotest.failf "train fraction %f far from 0.10" frac

let dataset_split_bad_fraction () =
  let ds = dataset_of_target ~k:2 ~n:10 ~seed:5 conj2 in
  Alcotest.check_raises "fraction 0" (Invalid_argument "Dataset.split: fraction must be in (0, 1)")
    (fun () -> ignore (Dataset.split (Splitmix.create 1) ~train_fraction:0.0 ds))

let dataset_balanced () =
  let rng = Splitmix.create 7 in
  let mk b = List.init 40 (fun i -> Array.init 3 (fun j -> (i + j) mod 2 = if b then 0 else 1)) in
  let positives = mk true and negatives = List.filteri (fun i _ -> i < 25) (mk false) in
  let ds = Dataset.balanced rng ~positives ~negatives ~nfeatures:3 in
  check Alcotest.int "pos = neg = min" 25 (Dataset.num_positive ds);
  check Alcotest.int "neg" 25 (Dataset.num_negative ds)

let dataset_class_ratio () =
  let ds = dataset_of_target ~k:3 ~n:400 ~seed:9 majority3 in
  let rng = Splitmix.create 10 in
  let skewed = Dataset.with_class_ratio rng ~pos_weight:9 ~neg_weight:1 ~size:200 ds in
  check Alcotest.int "size" 200 (Dataset.size skewed);
  check Alcotest.int "positives 90%" 180 (Dataset.num_positive skewed)

let dataset_shuffle_preserves =
  qtest ~count:50 "shuffle preserves the multiset" QCheck2.Gen.(int_bound 10_000)
    (fun seed ->
      let ds = dataset_of_target ~k:3 ~n:50 ~seed parity3 in
      let shuffled = Dataset.shuffle (Splitmix.create (seed + 1)) ds in
      let key d =
        Array.to_list d.Dataset.samples
        |> List.map (fun s ->
               (Array.to_list s.Dataset.features, s.Dataset.label))
        |> List.sort compare
      in
      key ds = key shuffled)

(* --- metrics ----------------------------------------------------------------- *)

let metrics_hand_values () =
  let c = { Metrics.tp = 40.0; fp = 10.0; tn = 45.0; fn = 5.0 } in
  check (Alcotest.float 1e-9) "accuracy" 0.85 (Metrics.accuracy c);
  check (Alcotest.float 1e-9) "precision" 0.8 (Metrics.precision c);
  check (Alcotest.float 1e-9) "recall" (40.0 /. 45.0) (Metrics.recall c);
  let p = 0.8 and r = 40.0 /. 45.0 in
  check (Alcotest.float 1e-9) "f1" (2.0 *. p *. r /. (p +. r)) (Metrics.f1 c)

let metrics_degenerate () =
  let c = { Metrics.tp = 0.0; fp = 0.0; tn = 10.0; fn = 5.0 } in
  check (Alcotest.float 1e-9) "precision 0/0 = 0" 0.0 (Metrics.precision c);
  check (Alcotest.float 1e-9) "f1 degenerate = 0" 0.0 (Metrics.f1 c)

let metrics_of_predictions () =
  let c =
    Metrics.of_predictions
      ~predicted:[| true; true; false; false |]
      ~actual:[| true; false; false; true |]
  in
  check (Alcotest.float 1e-9) "tp" 1.0 c.Metrics.tp;
  check (Alcotest.float 1e-9) "fp" 1.0 c.Metrics.fp;
  check (Alcotest.float 1e-9) "tn" 1.0 c.Metrics.tn;
  check (Alcotest.float 1e-9) "fn" 1.0 c.Metrics.fn;
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Metrics.of_predictions: length mismatch") (fun () ->
      ignore (Metrics.of_predictions ~predicted:[| true |] ~actual:[||]))

(* --- decision tree -------------------------------------------------------------- *)

let tree_pure_leaf () =
  let ds =
    Dataset.make ~nfeatures:2
      (List.init 5 (fun _ -> { Dataset.features = [| true; false |]; label = true }))
  in
  let t = Decision_tree.train ds in
  check Alcotest.int "single leaf" 1 (Decision_tree.num_leaves t);
  check Alcotest.bool "predicts true" true (Decision_tree.predict t [| false; false |])

let tree_fits_training_data =
  qtest ~count:100 "unbounded CART fits consistent training data"
    QCheck2.Gen.(int_bound 10_000)
    (fun seed ->
      let ds = dataset_of_target ~k:5 ~n:80 ~seed parity3 in
      let t = Decision_tree.train ds in
      Array.for_all
        (fun s -> Decision_tree.predict t s.Dataset.features = s.Dataset.label)
        ds.Dataset.samples)

let tree_learns_conjunction () =
  let ds = dataset_of_target ~k:4 ~n:200 ~seed:11 conj2 in
  let t = Decision_tree.train ds in
  (* must generalize perfectly: the concept depends on 2 features and
     200 samples cover all 16 feature combinations many times over *)
  let ok = ref true in
  for mask = 0 to 15 do
    let f = Array.init 4 (fun i -> mask land (1 lsl i) <> 0) in
    if Decision_tree.predict t f <> conj2 f then ok := false
  done;
  check Alcotest.bool "exact on all inputs" true !ok

let tree_max_depth () =
  let ds = dataset_of_target ~k:6 ~n:300 ~seed:12 parity3 in
  let t =
    Decision_tree.train
      ~params:{ Decision_tree.max_depth = Some 3; min_samples_split = 2; max_features = None }
      ds
  in
  check Alcotest.bool "depth bounded" true (Decision_tree.depth t <= 3)

let tree_paths_partition =
  qtest ~count:100 "paths are disjoint and cover the space"
    QCheck2.Gen.(int_bound 10_000)
    (fun seed ->
      let ds = dataset_of_target ~k:5 ~n:60 ~seed majority3 in
      let t = Decision_tree.train ds in
      let paths = Decision_tree.paths t in
      (* sum over paths of 2^(k - len) = 2^k, and each input follows
         exactly one path *)
      let total =
        List.fold_left (fun acc (conds, _) -> acc + (1 lsl (5 - List.length conds))) 0 paths
      in
      total = 32
      &&
      let follows features (conds, _) =
        List.for_all (fun (f, v) -> features.(f) = v) conds
      in
      let ok = ref true in
      for mask = 0 to 31 do
        let f = Array.init 5 (fun i -> mask land (1 lsl i) <> 0) in
        let matching = List.filter (follows f) paths in
        (match matching with
        | [ (_, label) ] -> if Decision_tree.predict t f <> label then ok := false
        | _ -> ok := false)
      done;
      !ok)

let tree_weights_flip_majority () =
  (* two contradictory samples; the heavier one wins the leaf label *)
  let ds =
    Dataset.make ~nfeatures:1
      [
        { Dataset.features = [| true |]; label = true };
        { Dataset.features = [| true |]; label = false };
      ]
  in
  let t = Decision_tree.train ~weights:[| 1.0; 3.0 |] ds in
  check Alcotest.bool "heavy negative wins" false (Decision_tree.predict t [| true |]);
  let t = Decision_tree.train ~weights:[| 3.0; 1.0 |] ds in
  check Alcotest.bool "heavy positive wins" true (Decision_tree.predict t [| true |])

let tree_degenerate_inputs () =
  let empty = Decision_tree.train (Dataset.make ~nfeatures:3 []) in
  check Alcotest.bool "empty dataset: one Leaf false" true
    (empty.Decision_tree.root = Decision_tree.Leaf false);
  let ds = dataset_of_target ~k:2 ~n:3 ~seed:1 conj2 in
  Alcotest.check_raises "weights length"
    (Invalid_argument "Decision_tree.train: weights length") (fun () ->
      ignore (Decision_tree.train ~weights:[| 1.0 |] ds))

let tree_eval_all () =
  let ds = dataset_of_target ~k:3 ~n:200 ~seed:13 majority3 in
  let t = Decision_tree.train ds in
  let c = Decision_tree.eval_all t ~scope_bits:3 majority3 in
  (* 200 samples over 8 combinations: the tree should be exact *)
  check (Alcotest.float 1e-9) "perfect confusion" 0.0 (c.Metrics.fp +. c.Metrics.fn);
  check (Alcotest.float 1e-9) "totals" 8.0 (c.Metrics.tp +. c.Metrics.tn)

(* --- regression tree / GBDT ------------------------------------------------------ *)

let regression_tree_fits_constant () =
  let ds = dataset_of_target ~k:2 ~n:10 ~seed:14 conj2 in
  match Decision_tree.regression_tree ~max_depth:3 ds ~targets:(Array.make 10 2.5) with
  | Decision_tree.Leaf v -> check (Alcotest.float 1e-9) "constant" 2.5 v
  | Decision_tree.Split _ -> Alcotest.fail "split a constant target"

let regression_tree_splits () =
  let ds =
    Dataset.make ~nfeatures:1
      [
        { Dataset.features = [| true |]; label = true };
        { Dataset.features = [| false |]; label = false };
      ]
  in
  let t = Decision_tree.regression_tree ~max_depth:3 ds ~targets:[| 1.0; -1.0 |] in
  check (Alcotest.float 1e-9) "fits +1" 1.0 (Decision_tree.leaf t [| true |]);
  check (Alcotest.float 1e-9) "fits -1" (-1.0) (Decision_tree.leaf t [| false |]);
  Alcotest.check_raises "targets length"
    (Invalid_argument "Decision_tree.regression_tree: targets length") (fun () ->
      ignore (Decision_tree.regression_tree ~max_depth:3 ds ~targets:[| 1.0 |]))

(* A regression-tree grower written from scratch over lists: every
   feature scored by two passes per side with [** 2.0], mean leaves, a
   split only on a strict improvement, the first feature on a tie.  It
   screens nothing, so [regression_tree] must grow the same tree. *)
let reference_regression_tree ~max_depth ~k items =
  let sse items =
    let n = float_of_int (List.length items) in
    let mean = List.fold_left (fun acc (_, t) -> acc +. t) 0.0 items /. n in
    (List.fold_left (fun acc (_, t) -> acc +. ((t -. mean) ** 2.0)) 0.0 items, mean)
  in
  let rec grow items depth =
    let impurity, mean = sse items in
    if impurity = 0.0 || List.length items < 2 || depth >= max_depth then Decision_tree.Leaf mean
    else begin
      let best = ref impurity and feature = ref (-1) in
      for f = 0 to k - 1 do
        match List.partition (fun (x, _) -> x.(f)) items with
        | [], _ | _, [] -> ()
        | yes, no ->
            let score = fst (sse no) +. fst (sse yes) in
            if score < !best then begin
              best := score;
              feature := f
            end
      done;
      if !feature < 0 then Decision_tree.Leaf mean
      else
        let yes, no = List.partition (fun (x, _) -> x.(!feature)) items in
        Decision_tree.Split
          { feature = !feature; if_false = grow no (depth + 1); if_true = grow yes (depth + 1) }
    end
  in
  grow items 0

let rec regression_tree_to_string = function
  | Decision_tree.Leaf v -> Printf.sprintf "%h" v
  | Decision_tree.Split { feature; if_false; if_true } ->
      Printf.sprintf "(x%d %s %s)" feature (regression_tree_to_string if_false)
        (regression_tree_to_string if_true)

(* Cases aimed at the screen's bound: constant targets, targets one ulp
   apart (every estimate is rounding noise), targets from 1e-8 to 1e3,
   a few repeated levels, GBDT-like residuals, and targets near 2^512
   whose squares overflow though their deviations' do not; columns that
   are constant or copy column 0 (exact ties); 1 to 2,000 samples. *)
let screen_case =
  let open QCheck2.Gen in
  let* n = oneof [ int_range 1 12; int_range 1 2000 ] in
  let* k = int_range 1 8 and* kind = int_bound 5 and* depth = int_range 1 4 in
  let* seed = int_bound 1_000_000 in
  return (n, k, kind, depth, seed)

let screen_data (n, k, kind, _, seed) =
  let rng = Splitmix.create seed in
  (* column c: random (0), constant (1, 2) or a copy of column 0 (3) *)
  let modes = Array.init k (fun _ -> Splitmix.int rng 4) in
  let base = Splitmix.float rng *. 10.0 in
  let target () =
    match kind with
    | 0 -> base
    | 1 -> if Splitmix.bool rng then Float.succ base else base
    | 2 ->
        let m = 10.0 ** ((Splitmix.float rng *. 11.0) -. 8.0) in
        if Splitmix.bool rng then m else -.m
    | 3 -> base *. float_of_int (Splitmix.int rng 3)
    | 4 -> (if Splitmix.bool rng then 1.0 else 0.0) -. (0.5 +. (Splitmix.float rng *. 0.01))
    | _ -> Float.ldexp (1.0 +. (float_of_int (Splitmix.int rng 8) *. epsilon_float)) 512
  in
  List.init n (fun _ ->
      let x = Array.make k false in
      for c = 0 to k - 1 do
        x.(c) <-
          (match modes.(c) with
          | 1 -> true
          | 2 -> false
          | 3 -> x.(0)
          | _ -> Splitmix.bool rng)
      done;
      (x, target ()))

let regression_tree_screen =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"screened scoring grows the two-pass tree"
       ~print:(fun (n, k, kind, depth, seed) ->
         Printf.sprintf "n=%d k=%d kind=%d depth=%d seed=%d" n k kind depth seed)
       screen_case
       (fun ((_, k, _, max_depth, _) as case) ->
         let items = screen_data case in
         let ds =
           Dataset.make ~nfeatures:k
             (List.map (fun (x, _) -> { Dataset.features = x; label = false }) items)
         in
         let targets = Array.of_list (List.map snd items) in
         String.equal
           (regression_tree_to_string (Decision_tree.regression_tree ~max_depth ds ~targets))
           (regression_tree_to_string (reference_regression_tree ~max_depth ~k items))))

let gbdt_learns_majority () =
  let ds = dataset_of_target ~k:3 ~n:300 ~seed:15 majority3 in
  let m = Gradient_boosting.train ds in
  let ok = ref true in
  for mask = 0 to 7 do
    let f = Array.init 3 (fun i -> mask land (1 lsl i) <> 0) in
    if Gradient_boosting.predict m f <> majority3 f then ok := false
  done;
  check Alcotest.bool "exact" true !ok

(* --- random forest ----------------------------------------------------------------- *)

let forest_learns_and_is_seeded () =
  let ds = dataset_of_target ~k:4 ~n:300 ~seed:16 conj2 in
  let train rng_seed =
    Random_forest.train
      ~params:{ Random_forest.n_trees = 9 }
      ~rng:(Splitmix.create rng_seed) ds
  in
  let f1 = train 1 and f1' = train 1 in
  let agree = ref true and correct = ref true in
  for mask = 0 to 15 do
    let f = Array.init 4 (fun i -> mask land (1 lsl i) <> 0) in
    if Random_forest.predict f1 f <> Random_forest.predict f1' f then agree := false;
    if Random_forest.predict f1 f <> conj2 f then correct := false
  done;
  check Alcotest.bool "deterministic given seed" true !agree;
  check Alcotest.bool "learns the conjunction" true !correct;
  check Alcotest.int "forest size" 9 (List.length (Random_forest.trees f1))

(* --- adaboost -------------------------------------------------------------------------- *)

let adaboost_learns_threshold () =
  let ds = dataset_of_target ~k:4 ~n:300 ~seed:17 majority3 in
  let m = Adaboost.train ds in
  let errors = ref 0 in
  for mask = 0 to 15 do
    let f = Array.init 4 (fun i -> mask land (1 lsl i) <> 0) in
    if Adaboost.predict m f <> majority3 f then incr errors
  done;
  check Alcotest.bool "at most one error on 16 inputs" true (!errors <= 1)

let adaboost_weights_positive () =
  let ds = dataset_of_target ~k:4 ~n:200 ~seed:18 conj2 in
  let m = Adaboost.train ds in
  check Alcotest.bool "all alphas > 0" true (List.for_all (fun a -> a > 0.0) (Adaboost.stump_weights m))

(* --- svm ------------------------------------------------------------------------------ *)

let svm_separable () =
  (* f0 alone decides the label: linearly separable *)
  let ds = dataset_of_target ~k:4 ~n:300 ~seed:19 (fun f -> f.(0)) in
  let m = Linear_svm.train ~rng:(Splitmix.create 20) ds in
  let ok = ref true in
  for mask = 0 to 15 do
    let f = Array.init 4 (fun i -> mask land (1 lsl i) <> 0) in
    if Linear_svm.predict m f <> f.(0) then ok := false
  done;
  check Alcotest.bool "perfect on separable data" true !ok

let svm_margin_sign () =
  let ds = dataset_of_target ~k:2 ~n:200 ~seed:21 (fun f -> f.(0)) in
  let m = Linear_svm.train ~rng:(Splitmix.create 22) ds in
  check Alcotest.bool "positive margin on positive" true
    (Linear_svm.decision_value m [| true; false |] > 0.0);
  check Alcotest.bool "negative margin on negative" true
    (Linear_svm.decision_value m [| false; false |] < 0.0)

(* --- mlp ------------------------------------------------------------------------------- *)

let mlp_learns_or () =
  let target f = f.(0) || f.(1) in
  let ds = dataset_of_target ~k:3 ~n:400 ~seed:23 target in
  let m =
    Mlp.train
      ~params:{ Mlp.hidden = 16; epochs = 60; batch = 16; learning_rate = 5e-3 }
      ~rng:(Splitmix.create 24) ds
  in
  let ok = ref true in
  for mask = 0 to 7 do
    let f = Array.init 3 (fun i -> mask land (1 lsl i) <> 0) in
    if Mlp.predict m f <> target f then ok := false
  done;
  check Alcotest.bool "learns OR" true !ok

let mlp_probability_range =
  qtest ~count:50 "probabilities stay in [0, 1]" QCheck2.Gen.(int_bound 1000) (fun seed ->
      let ds = dataset_of_target ~k:3 ~n:50 ~seed majority3 in
      let m =
        Mlp.train
          ~params:{ Mlp.hidden = 8; epochs = 5; batch = 8; learning_rate = 1e-3 }
          ~rng:(Splitmix.create seed) ds
      in
      let ok = ref true in
      for mask = 0 to 7 do
        let f = Array.init 3 (fun i -> mask land (1 lsl i) <> 0) in
        let p = Mlp.probability m f in
        if p < 0.0 || p > 1.0 || Float.is_nan p then ok := false
      done;
      !ok)

(* The MLP as it was before mlp_stubs.c, verbatim: the reference the
   kernel must match float for float, and the only other implementation
   of its arithmetic. *)
module Mlp_ref = struct
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
end

(* Random training sets: [k] features, [n] rows, each all-false with
   probability 1/4, labels drawn independently. *)
let random_dataset ~k ~n ~seed =
  let rng = Splitmix.create seed in
  Dataset.make ~nfeatures:k
    (List.init n (fun _ ->
         let blank = Splitmix.int rng 4 = 0 in
         let features = Array.init k (fun _ -> (not blank) && Splitmix.bool rng) in
         { Dataset.features; label = Splitmix.bool rng }))

let mlp_matches_reference =
  let open QCheck2.Gen in
  let gen =
    let* k = int_range 1 8 and* batch = int_range 1 40 in
    (* a third of the sets are no larger than one batch *)
    let* n = frequency [ (2, int_range 1 200); (1, int_range 1 batch) ] in
    let* hidden = oneofl [ 1; 2; 3; 5; 17; 64 ] and* epochs = int_range 1 3 in
    let* learning_rate = oneofl [ 5e-3; 0.5 ] and* seed = int_bound 1_000_000 in
    return (k, n, { Mlp.hidden; epochs; batch; learning_rate }, seed)
  in
  let print (k, n, (p : Mlp.params), seed) =
    Printf.sprintf "k=%d n=%d hidden=%d epochs=%d batch=%d lr=%g seed=%d" k n p.hidden
      p.epochs p.batch p.learning_rate seed
  in
  qtest ~count:300 ~print "kernel = OCaml reference, bit for bit" gen
    (fun (k, n, (p : Mlp.params), seed) ->
      let ds = random_dataset ~k ~n ~seed in
      let m = Mlp.train ~params:p ~rng:(Splitmix.create (seed + 1)) ds in
      let r =
        Mlp_ref.train
          ~params:
            {
              Mlp_ref.hidden = p.hidden;
              epochs = p.epochs;
              batch = p.batch;
              learning_rate = p.learning_rate;
            }
          ~rng:(Splitmix.create (seed + 1)) ds
      in
      List.for_all
        (fun x ->
          Printf.sprintf "%h" (Mlp.probability m x) = Printf.sprintf "%h" (Mlp_ref.probability r x))
        (inputs k))

(* --- bnn ------------------------------------------------------------------------------- *)

let bnn_learns_majority () =
  let ds = dataset_of_target ~k:3 ~n:400 ~seed:31 majority3 in
  let m = Bnn.train ~rng:(Splitmix.create 32) ds in
  let errors = ref 0 in
  for mask = 0 to 7 do
    let f = Array.init 3 (fun i -> mask land (1 lsl i) <> 0) in
    if Bnn.predict m f <> majority3 f then incr errors
  done;
  check Alcotest.bool "at most one error on 8 inputs" true (!errors <= 1)

let bnn_weights_are_binary =
  qtest ~count:20 "trained weights are strictly ±1" QCheck2.Gen.(int_bound 1000)
    (fun seed ->
      let ds = dataset_of_target ~k:4 ~n:60 ~seed conj2 in
      let m =
        Bnn.train ~params:{ Bnn.hidden = 4; epochs = 3; learning_rate = 0.05 }
          ~rng:(Splitmix.create seed) ds
      in
      Array.for_all (Array.for_all (fun w -> w = 1 || w = -1)) m.Bnn.w1
      && Array.for_all (fun w -> w = 1 || w = -1) m.Bnn.w2)

let bnn_shapes () =
  let ds = dataset_of_target ~k:5 ~n:40 ~seed:33 majority3 in
  let m =
    Bnn.train ~params:{ Bnn.hidden = 7; epochs = 2; learning_rate = 0.05 }
      ~rng:(Splitmix.create 34) ds
  in
  check Alcotest.int "inputs" 5 (Bnn.num_inputs m);
  check Alcotest.int "hidden" 7 (Bnn.num_hidden m)

(* --- golden trees --------------------------------------------------------------------- *)

(* Every tree family trained on fixed seeded data and digested: the pp
   of each DT and forest tree, the AdaBoost alphas, and the GBDT
   decision values over the whole input space printed with %h.  The
   digests were recorded with the list-based growers the shared grower
   replaced, so a change in float summation order, tie breaking or the
   forest's draw order fails here. *)
let golden_sets () =
  let noisy ~k ~n ~seed target =
    let rng = Splitmix.create seed in
    Dataset.make ~nfeatures:k
      (List.init n (fun _ ->
           let features = Array.init k (fun _ -> Splitmix.bool rng) in
           { Dataset.features; label = target features <> (Splitmix.int rng 7 = 0) }))
  in
  (* columns 5-7 copy columns 0-2, so every split on one of them ties *)
  let with_copies (ds : Dataset.t) =
    Dataset.make ~nfeatures:8
      (List.map
         (fun s ->
           let f = s.Dataset.features in
           { s with Dataset.features = Array.append f (Array.sub f 0 3) })
         (Array.to_list ds.Dataset.samples))
  in
  [ with_copies (noisy ~k:5 ~n:150 ~seed:41 majority3); noisy ~k:6 ~n:90 ~seed:42 parity3 ]

let digest_of print =
  let b = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer b in
  List.iter (print fmt) (golden_sets ());
  Format.pp_print_flush fmt ();
  Digest.to_hex (Digest.string (Buffer.contents b))

let golden_trees () =
  let dt params fmt ds = Decision_tree.pp fmt (Decision_tree.train ~params ds) in
  List.iter
    (fun (name, print, expected) -> check Alcotest.string name expected (digest_of print))
    [
      ("DT", dt Decision_tree.default_params, "e28c44579ba17eadacd2ff5fdc849d60");
      ( "DT depth 3, split 5",
        dt { Decision_tree.max_depth = Some 3; min_samples_split = 5; max_features = None },
        "610a62a7328870a889b1f64e7d0f91bb" );
      ( "RFT",
        (fun fmt ds ->
          List.iter (Decision_tree.pp fmt)
            (Random_forest.trees (Random_forest.train ~rng:(Splitmix.create 43) ds))),
        "a3eaf628e282d3beb5274581a0a45c89" );
      ( "ABT alphas",
        (fun fmt ds ->
          List.iter (Format.fprintf fmt "%h@.") (Adaboost.stump_weights (Adaboost.train ds))),
        "45678fba3c208e6a5a17d135e14bb120" );
      ( "GBDT decision values",
        (fun fmt ds ->
          let m = Gradient_boosting.train ds in
          List.iter
            (fun x -> Format.fprintf fmt "%h@." (Gradient_boosting.decision_value m x))
            (inputs ds.Dataset.nfeatures)),
        "aca7c9786e814ef3d81e3645960af8bf" );
    ]

(* The two non-tree learners on the same sets: the MLP's probability
   and the SVM's margin over the whole input space, printed with %h.
   Recorded before the MLP's flat input-major rewrite, so any change in
   initialisation order, summation order or Adam's arithmetic fails
   here. *)
let golden_nets () =
  List.iter
    (fun (name, score, expected) ->
      let print fmt (ds : Dataset.t) =
        let f = score ds in
        List.iter (fun x -> Format.fprintf fmt "%h@." (f x)) (inputs ds.Dataset.nfeatures)
      in
      check Alcotest.string name expected (digest_of print))
    [
      ( "MLP probabilities",
        (fun ds ->
          Mlp.probability
            (Mlp.train
               ~params:{ Mlp.hidden = 64; epochs = 40; batch = 32; learning_rate = 5e-3 }
               ~rng:(Splitmix.create 44) ds)),
        "3fb2f0920de6d16b3faf5fcf4379f45e" );
      ( "SVM decision values",
        (fun ds ->
          Linear_svm.decision_value
            (Linear_svm.train
               ~params:{ Linear_svm.lambda = 1e-4; epochs = 30 }
               ~rng:(Splitmix.create 45) ds)),
        "c41ec2c2ed37b4919df9aa455222e5c5" );
    ]

(* The golden MLP trained on two domains at once, five times each: the
   kernel keeps no state of its own, so every run prints
   [golden_nets]'s digest. *)
let golden_mlp_two_domains () =
  let digest () =
    digest_of (fun fmt (ds : Dataset.t) ->
        let m =
          Mlp.train
            ~params:{ Mlp.hidden = 64; epochs = 40; batch = 32; learning_rate = 5e-3 }
            ~rng:(Splitmix.create 44) ds
        in
        List.iter (fun x -> Format.fprintf fmt "%h@." (Mlp.probability m x)) (inputs ds.Dataset.nfeatures))
  in
  let runs () = List.init 5 (fun _ -> digest ()) in
  let other = Domain.spawn runs in
  let here = runs () in
  List.iter
    (fun (where, digests) ->
      List.iter (check Alcotest.string where "3fb2f0920de6d16b3faf5fcf4379f45e") digests)
    [ ("this domain", here); ("other domain", Domain.join other) ]

(* --- unified model interface ------------------------------------------------------------- *)

let model_names () =
  List.iter
    (fun k ->
      check Alcotest.bool
        (Model.name_of k ^ " roundtrips")
        true
        (Model.kind_of_name (Model.name_of k) = Some k))
    Model.kinds;
  check Alcotest.bool "unknown name" true (Model.kind_of_name "nope" = None);
  check Alcotest.int "six kinds" 6 (List.length Model.kinds)

let model_all_kinds_train_and_beat_chance () =
  let ds = dataset_of_target ~k:4 ~n:400 ~seed:25 conj2 in
  let rng = Splitmix.create 26 in
  let train, test = Dataset.split rng ~train_fraction:0.5 ds in
  List.iter
    (fun kind ->
      let m = Model.train ~sizes:Model.fast_sizes ~seed:27 kind train in
      let c = Model.evaluate m test in
      let acc = Metrics.accuracy c in
      if acc < 0.8 then
        Alcotest.failf "%s only reaches accuracy %.2f on an easy concept"
          (Model.name_of kind) acc;
      check Alcotest.bool
        (Model.name_of kind ^ " exposes tree iff DT")
        (kind = Model.DT)
        (m.Model.tree <> None))
    Model.kinds

let () =
  Alcotest.run "ml"
    [
      ( "dataset",
        [
          Alcotest.test_case "length mismatch" `Quick dataset_make_mismatch;
          dataset_split_properties;
          Alcotest.test_case "split ratio" `Quick dataset_split_ratio;
          Alcotest.test_case "bad fraction" `Quick dataset_split_bad_fraction;
          Alcotest.test_case "balanced" `Quick dataset_balanced;
          Alcotest.test_case "class ratio" `Quick dataset_class_ratio;
          dataset_shuffle_preserves;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "hand values" `Quick metrics_hand_values;
          Alcotest.test_case "degenerate cases" `Quick metrics_degenerate;
          Alcotest.test_case "of_predictions" `Quick metrics_of_predictions;
        ] );
      ( "decision-tree",
        [
          Alcotest.test_case "pure leaf" `Quick tree_pure_leaf;
          tree_fits_training_data;
          Alcotest.test_case "learns a conjunction" `Quick tree_learns_conjunction;
          Alcotest.test_case "max depth respected" `Quick tree_max_depth;
          tree_paths_partition;
          Alcotest.test_case "weighted majority" `Quick tree_weights_flip_majority;
          Alcotest.test_case "empty data, bad weights" `Quick tree_degenerate_inputs;
          Alcotest.test_case "eval_all" `Quick tree_eval_all;
        ] );
      ( "regression-gbdt",
        [
          Alcotest.test_case "constant fit" `Quick regression_tree_fits_constant;
          Alcotest.test_case "single split" `Quick regression_tree_splits;
          regression_tree_screen;
          Alcotest.test_case "gbdt learns majority" `Quick gbdt_learns_majority;
        ] );
      ( "random-forest",
        [ Alcotest.test_case "seeded and correct" `Quick forest_learns_and_is_seeded ] );
      ( "adaboost",
        [
          Alcotest.test_case "learns threshold" `Quick adaboost_learns_threshold;
          Alcotest.test_case "positive alphas" `Quick adaboost_weights_positive;
        ] );
      ( "svm",
        [
          Alcotest.test_case "separable" `Quick svm_separable;
          Alcotest.test_case "margin signs" `Quick svm_margin_sign;
        ] );
      ( "mlp",
        [
          Alcotest.test_case "learns OR" `Slow mlp_learns_or;
          mlp_probability_range;
          mlp_matches_reference;
        ] );
      ( "bnn",
        [
          Alcotest.test_case "learns majority" `Slow bnn_learns_majority;
          bnn_weights_are_binary;
          Alcotest.test_case "shapes" `Quick bnn_shapes;
        ] );
      ( "golden",
        [
          Alcotest.test_case "every tree family" `Quick golden_trees;
          Alcotest.test_case "MLP and SVM" `Quick golden_nets;
          Alcotest.test_case "MLP on two domains at once" `Quick golden_mlp_two_domains;
        ] );
      ( "model",
        [
          Alcotest.test_case "names" `Quick model_names;
          Alcotest.test_case "all kinds train" `Slow model_all_kinds_train_and_beat_chance;
        ] );
    ]
