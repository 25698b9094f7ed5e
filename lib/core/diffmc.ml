open Mcml_logic
open Mcml_ml
open Mcml_counting

type counts = {
  tt : Bignat.t;
  tf : Bignat.t;
  ft : Bignat.t;
  ff : Bignat.t;
  time : float;
}

(* Every input follows exactly one path of each tree, so each of the
   four counts is a sum over path pairs with its labels: a pair agrees
   with 2^(n − |vars(p1) ∪ vars(p2)|) inputs, or none when the paths test
   a feature both ways.  Walking [d2] from each leaf of [d1] with the
   features fixed so far visits exactly the consistent pairs.  The
   result is [tt; tf; ft; ff]. *)
let path_pairs ~nprimary (d1 : Decision_tree.t) (d2 : Decision_tree.t) =
  let sums = Array.make 4 Bignat.zero in
  let fixed = Array.make nprimary (-1) in
  let rec walk node k at_leaf =
    match node with
    | Decision_tree.Leaf label -> at_leaf label k
    | Decision_tree.Split { feature; if_false; if_true } -> (
        match fixed.(feature) with
        | -1 ->
            fixed.(feature) <- 0;
            walk if_false (k + 1) at_leaf;
            fixed.(feature) <- 1;
            walk if_true (k + 1) at_leaf;
            fixed.(feature) <- -1
        | 0 -> walk if_false k at_leaf
        | _ -> walk if_true k at_leaf)
  in
  walk d1.Decision_tree.root 0 (fun l1 k ->
      walk d2.Decision_tree.root k (fun l2 k ->
          let i = (if l1 then 0 else 2) + if l2 then 0 else 1 in
          sums.(i) <- Bignat.add sums.(i) (Bignat.pow2 (nprimary - k))));
  Array.to_list sums

let counts ?budget ?pool ?cache ~backend ~nprimary d1 d2 =
  let side tree label = Tree2cnf.cnf_of_label ~nfeatures:nprimary tree ~label in
  let start = Mcml_obs.Obs.monotonic_s () in
  let open Mcml_obs in
  let sp = if Obs.enabled () then Some (Obs.start "diffmc.counts") else None in
  let one l1 l2 () =
    let problem = Cnf.conjoin ~nshared:nprimary (side d1 l1) (side d2 l2) in
    Option.map
      (fun o -> o.Counter.count)
      (Counter.count ?budget ?cache (Counter.query ~backend problem))
  in
  let result =
    Option.map
      (function
        | [ tt; tf; ft; ff ] -> { tt; tf; ft; ff; time = Mcml_obs.Obs.monotonic_s () -. start }
        | _ -> assert false)
      (match backend with
      | Counter.Exact -> Some (path_pairs ~nprimary d1 d2)
      | Counter.Approx _ | Counter.Brute ->
          Mcml_exec.Pool.all_some ?pool
            [ one true true; one true false; one false true; one false false ])
  in
  (match sp with
  | None -> ()
  | Some sp ->
      Obs.add "diffmc.evaluations" 1;
      Obs.finish sp
        ~attrs:
          [
            ("backend", Obs.Str (Counter.name backend));
            ("nprimary", Obs.Int nprimary);
            ("outcome", Obs.Str (if Option.is_none result then "timeout" else "complete"));
          ]);
  result

let diff c ~nprimary =
  (Bignat.to_float c.tf +. Bignat.to_float c.ft) /. Bignat.to_float (Bignat.pow2 nprimary)

let sim c ~nprimary = 1.0 -. diff c ~nprimary

let check_total c ~nprimary =
  let total = List.fold_left Bignat.add Bignat.zero [ c.tt; c.tf; c.ft; c.ff ] in
  Bignat.equal total (Bignat.pow2 nprimary)
