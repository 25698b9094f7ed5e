type t = { init : float; stages : float Decision_tree.tree list }
type params = { n_estimators : int }

let default_params = { n_estimators = 100 }

(* scikit-learn's defaults: shrinkage 0.1, depth-3 stages *)
let learning_rate = 0.1
let max_depth = 3

let sigmoid z = 1.0 /. (1.0 +. exp (-.z))

let train ?(params = default_params) (ds : Dataset.t) =
  let n = Dataset.size ds in
  if n = 0 then invalid_arg "Gradient_boosting.train: empty dataset";
  let y = Array.map (fun s -> if s.Dataset.label then 1.0 else 0.0) ds.Dataset.samples in
  let pos = Array.fold_left ( +. ) 0.0 y in
  let prior = Float.max 1e-6 (Float.min (1.0 -. 1e-6) (pos /. float_of_int n)) in
  let init = log (prior /. (1.0 -. prior)) in
  let scores = Array.make n init in
  let stages = ref [] in
  for _ = 1 to params.n_estimators do
    (* negative gradient of the logistic loss: residual y - p *)
    let residuals = Array.mapi (fun i yi -> yi -. sigmoid scores.(i)) y in
    let tree = Decision_tree.regression_tree ~max_depth ds ~targets:residuals in
    stages := tree :: !stages;
    Array.iteri
      (fun i s ->
        scores.(i) <-
          scores.(i) +. (learning_rate *. Decision_tree.leaf tree s.Dataset.features))
      ds.Dataset.samples
  done;
  { init; stages = List.rev !stages }

let decision_value (model : t) features =
  List.fold_left
    (fun acc tree -> acc +. (learning_rate *. Decision_tree.leaf tree features))
    model.init model.stages

let predict t features = decision_value t features > 0.0
