open Mcml_logic
module Obs = Mcml_obs.Obs

type kind = DT | RFT | ABT | GBDT | SVM | MLP

let kinds = [ DT; RFT; GBDT; ABT; SVM; MLP ]

let name_of = function
  | DT -> "DT"
  | RFT -> "RFT"
  | ABT -> "ABT"
  | GBDT -> "GBDT"
  | SVM -> "SVM"
  | MLP -> "MLP"

let kind_of_name s =
  match String.uppercase_ascii s with
  | "DT" -> Some DT
  | "RFT" | "RF" -> Some RFT
  | "ABT" | "ADABOOST" -> Some ABT
  | "GBDT" | "GB" -> Some GBDT
  | "SVM" -> Some SVM
  | "MLP" -> Some MLP
  | _ -> None

type sizes = {
  rft_trees : int;
  abt_estimators : int;
  gbdt_estimators : int;
  mlp_epochs : int;
  svm_epochs : int;
}

let default_sizes =
  { rft_trees = 100; abt_estimators = 50; gbdt_estimators = 100; mlp_epochs = 40; svm_epochs = 30 }

let fast_sizes =
  { rft_trees = 15; abt_estimators = 20; gbdt_estimators = 25; mlp_epochs = 25; svm_epochs = 10 }

type t = {
  kind : kind;
  predict : bool array -> bool;
  tree : Decision_tree.t option;
}

(* Span attrs for a trained model: tree shape when there is a tree. *)
let train_attrs kind (ds : Dataset.t) (m : t) =
  let base =
    [
      ("model", Obs.Str (name_of kind));
      ("samples", Obs.Int (Dataset.size ds));
      ("features", Obs.Int ds.Dataset.nfeatures);
    ]
  in
  match m.tree with
  | None -> base
  | Some tree ->
      base
      @ [
          ("tree_depth", Obs.Int (Decision_tree.depth tree));
          ("tree_leaves", Obs.Int (Decision_tree.num_leaves tree));
        ]

let instrumented kind ds f =
  if not (Obs.enabled ()) then f ()
  else begin
    let sp = Obs.start "ml.train" in
    let m = f () in
    Obs.add "ml.trains" 1;
    Obs.finish sp ~attrs:(train_attrs kind ds m);
    m
  end

let train_core ~sizes ~seed kind ds =
  let rng = Splitmix.create seed in
  match kind with
  | DT ->
      let tree = Decision_tree.train ds in
      { kind; predict = Decision_tree.predict tree; tree = Some tree }
  | RFT ->
      let forest =
        Random_forest.train ~params:{ Random_forest.n_trees = sizes.rft_trees } ~rng ds
      in
      { kind; predict = Random_forest.predict forest; tree = None }
  | ABT ->
      let model =
        Adaboost.train ~params:{ Adaboost.n_estimators = sizes.abt_estimators } ds
      in
      { kind; predict = Adaboost.predict model; tree = None }
  | GBDT ->
      let model =
        Gradient_boosting.train
          ~params:{ Gradient_boosting.n_estimators = sizes.gbdt_estimators }
          ds
      in
      { kind; predict = Gradient_boosting.predict model; tree = None }
  | SVM ->
      let model =
        Linear_svm.train
          ~params:{ Linear_svm.lambda = 1e-4; epochs = sizes.svm_epochs }
          ~rng ds
      in
      { kind; predict = Linear_svm.predict model; tree = None }
  | MLP ->
      let model =
        Mlp.train
          ~params:{ Mlp.default_params with Mlp.epochs = sizes.mlp_epochs }
          ~rng ds
      in
      { kind; predict = Mlp.predict model; tree = None }

let train ?(sizes = default_sizes) ~seed kind ds =
  instrumented kind ds (fun () -> train_core ~sizes ~seed kind ds)

let train_tree ?(params = Decision_tree.default_params) ~seed ds =
  instrumented DT ds (fun () ->
      let rng = Splitmix.create seed in
      let tree = Decision_tree.train ~params ~rng ds in
      { kind = DT; predict = Decision_tree.predict tree; tree = Some tree })

let evaluate_core t (ds : Dataset.t) =
  let predicted = Array.map (fun s -> t.predict s.Dataset.features) ds.Dataset.samples in
  let actual = Array.map (fun s -> s.Dataset.label) ds.Dataset.samples in
  Metrics.of_predictions ~predicted ~actual

let evaluate t ds =
  if not (Obs.enabled ()) then evaluate_core t ds
  else
    Obs.with_span "ml.evaluate"
      ~attrs:(fun () ->
        [ ("model", Obs.Str (name_of t.kind)); ("samples", Obs.Int (Dataset.size ds)) ])
      (fun () -> evaluate_core t ds)
