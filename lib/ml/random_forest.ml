open Mcml_logic

type t = { forest : Decision_tree.t array }
type params = { n_trees : int }

let default_params = { n_trees = 100 }

let train ?(params = default_params) ~rng (ds : Dataset.t) =
  let n = Dataset.size ds in
  if n = 0 then invalid_arg "Random_forest.train: empty dataset";
  let max_features =
    max 1 (int_of_float (Float.round (sqrt (float_of_int ds.Dataset.nfeatures))))
  in
  (* unbounded depth, as scikit-learn's default forest *)
  let tree_params = { Decision_tree.default_params with max_features = Some max_features } in
  let forest =
    Array.init params.n_trees (fun _ ->
        (* bootstrap sample of size n *)
        let indices = List.init n (fun _ -> Splitmix.int rng n) in
        Decision_tree.train ~params:tree_params ~rng (Dataset.subset ds indices))
  in
  { forest }

let predict t features =
  let votes =
    Array.fold_left
      (fun acc tree -> if Decision_tree.predict tree features then acc + 1 else acc)
      0 t.forest
  in
  2 * votes > Array.length t.forest

let trees t = Array.to_list t.forest
