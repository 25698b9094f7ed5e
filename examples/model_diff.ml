(* DiffMC: comparing two trained models over the entire input space
   without ground truth (the paper's Table 8 and the "should I replace
   the deployed model?" scenario from §6).

   We train Table 8's tree pair on PreOrder data — an unrestricted CART
   tree as the 'deployed' model and a depth-limited one as a cheaper
   'compressed' candidate — and ask how often their predictions can
   ever disagree.

   Run with:  dune exec examples/model_diff.exe *)

open Mcml
open Mcml_logic
open Mcml_props

let () =
  let prop = Props.find_exn "PreOrder" in
  let scope = 5 in
  let nprimary = scope * scope in
  let data =
    Pipeline.generate prop
      { Pipeline.scope; symmetry = false; max_positives = 3000; seed = 7 }
  in
  (* Table 8's pair: an unrestricted tree and one at most 4 deep, both
     trained on the same half of the data *)
  let deployed, compressed = Pipeline.diffmc_trees ~seed:7 data.Pipeline.dataset in
  Printf.printf "deployed tree  : %d leaves, depth %d\n"
    (Mcml_ml.Decision_tree.num_leaves deployed)
    (Mcml_ml.Decision_tree.depth deployed);
  Printf.printf "compressed tree: %d leaves, depth %d\n"
    (Mcml_ml.Decision_tree.num_leaves compressed)
    (Mcml_ml.Decision_tree.depth compressed);

  (* on the samples, they can look interchangeable... *)
  let samples = data.Pipeline.dataset in
  let agree = ref 0 in
  Array.iter
    (fun s ->
      if
        Mcml_ml.Decision_tree.predict deployed s.Mcml_ml.Dataset.features
        = Mcml_ml.Decision_tree.predict compressed s.Mcml_ml.Dataset.features
      then incr agree)
    samples.Mcml_ml.Dataset.samples;
  Printf.printf "sample agreement: %.2f%% (%d/%d samples, half of them training data)\n"
    (100.0 *. float_of_int !agree /. float_of_int (Mcml_ml.Dataset.size samples))
    !agree (Mcml_ml.Dataset.size samples);

  (* ...but DiffMC measures agreement over ALL 2^25 inputs *)
  match
    Diffmc.counts ~backend:Mcml_counting.Counter.Exact ~nprimary deployed compressed
  with
  | Some c ->
      Printf.printf "\nDiffMC over the entire 2^%d input space (%.1fs):\n" nprimary
        c.Diffmc.time;
      Printf.printf "  TT=%s TF=%s FT=%s FF=%s\n"
        (Bignat.to_string c.Diffmc.tt) (Bignat.to_string c.Diffmc.tf)
        (Bignat.to_string c.Diffmc.ft) (Bignat.to_string c.Diffmc.ff);
      Printf.printf "  diff = %.4f%%  sim = %.4f%%\n"
        (100.0 *. Diffmc.diff c ~nprimary)
        (100.0 *. Diffmc.sim c ~nprimary);
      Printf.printf
        "\nThe difference is tiny relative to the space, but the absolute number of\n\
         disagreeing inputs (TF + FT = %s) is what a deployment decision needs —\n\
         and no test set reveals it.\n"
        (Bignat.to_string (Bignat.add c.Diffmc.tf c.Diffmc.ft))
  | None -> print_endline "timeout"
