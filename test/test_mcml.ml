(* Tests for the MCML core: Tree2CNF, AccMC, DiffMC, the data pipeline
   and the experiment drivers.  The central oracle is exhaustive
   evaluation of trees and properties over all 2^(n²) inputs at scope 3
   (512 matrices), which is independent of the whole SAT/counting
   pipeline. *)

open Mcml
open Mcml_logic
open Mcml_ml
open Mcml_props

let check = Alcotest.check
let qtest ?(count = 100) name gen prop = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let backend = Mcml_counting.Counter.Exact

(* random trees via random datasets over k features *)
let random_tree ~k ~seed =
  let rng = Splitmix.create seed in
  let target = Array.init 8 (fun _ -> Splitmix.bool rng) in
  let samples =
    List.init 64 (fun _ ->
        let features = Array.init k (fun _ -> Splitmix.bool rng) in
        let h = Array.fold_left (fun acc b -> (2 * acc) + if b then 1 else 0) 0 features in
        { Dataset.features; label = target.(h mod 8) })
  in
  Decision_tree.train (Dataset.make ~nfeatures:k samples)

let count_tree_outputs tree ~k ~label =
  let n = ref 0 in
  let f = Array.make k false in
  for mask = 0 to (1 lsl k) - 1 do
    for b = 0 to k - 1 do
      f.(b) <- mask land (1 lsl b) <> 0
    done;
    if Decision_tree.predict tree f = label then incr n
  done;
  !n

(* --- tree2cnf -------------------------------------------------------------- *)

let tree2cnf_counts_match_predictions =
  qtest "mc(tree side) = exhaustive prediction count"
    QCheck2.Gen.(pair (int_bound 10_000) (int_range 3 8))
    (fun (seed, k) ->
      let tree = random_tree ~k ~seed in
      let ok label =
        let cnf = Tree2cnf.cnf_of_label ~nfeatures:k tree ~label in
        Bignat.equal
          (Mcml_counting.Exact.count cnf)
          (Bignat.of_int (count_tree_outputs tree ~k ~label))
      in
      ok true && ok false)

let tree2cnf_partitions_space =
  qtest "true side + false side = 2^k"
    QCheck2.Gen.(pair (int_bound 10_000) (int_range 3 8))
    (fun (seed, k) ->
      let tree = random_tree ~k ~seed in
      let count label =
        Mcml_counting.Exact.count (Tree2cnf.cnf_of_label ~nfeatures:k tree ~label)
      in
      Bignat.equal (Bignat.add (count true) (count false)) (Bignat.pow2 k))

let tree2cnf_formula_agrees =
  qtest "formula_of_label = predict"
    QCheck2.Gen.(pair (int_bound 10_000) (int_range 3 6))
    (fun (seed, k) ->
      let tree = random_tree ~k ~seed in
      let f_true = Tree2cnf.formula_of_label ~nfeatures:k tree ~label:true in
      let ok = ref true in
      for mask = 0 to (1 lsl k) - 1 do
        let features = Array.init k (fun b -> mask land (1 lsl b) <> 0) in
        let via_formula = Formula.eval (fun v -> features.(v - 1)) f_true in
        if via_formula <> Decision_tree.predict tree features then ok := false
      done;
      !ok)

let tree2cnf_no_aux_vars () =
  let tree = random_tree ~k:6 ~seed:1 in
  let cnf = Tree2cnf.cnf_of_label ~nfeatures:6 tree ~label:true in
  check Alcotest.int "nvars = nfeatures (no auxiliaries)" 6 cnf.Cnf.nvars;
  check Alcotest.int "clause count = opposite paths"
    (Tree2cnf.clause_count tree ~label:true)
    (Cnf.num_clauses cnf)

let tree2cnf_constant_tree () =
  (* a pure dataset yields a single leaf; its true-side CNF is the whole
     space or nothing *)
  let ds =
    Dataset.make ~nfeatures:3
      [ { Dataset.features = [| true; false; true |]; label = true } ]
  in
  let tree = Decision_tree.train ds in
  let t = Mcml_counting.Exact.count (Tree2cnf.cnf_of_label ~nfeatures:3 tree ~label:true) in
  let f = Mcml_counting.Exact.count (Tree2cnf.cnf_of_label ~nfeatures:3 tree ~label:false) in
  check Alcotest.string "all true" "8" (Bignat.to_string t);
  check Alcotest.string "none false" "0" (Bignat.to_string f)

(* --- bnn2cnf --------------------------------------------------------------------- *)

let threshold_matches_popcount =
  qtest "threshold formula = popcount semantics"
    QCheck2.Gen.(pair (int_range 1 7) (int_range 0 8))
    (fun (k, t) ->
      let lits = List.init k (fun i -> Formula.var (i + 1)) in
      let f = Bnn2cnf.threshold lits t in
      let ok = ref true in
      for mask = 0 to (1 lsl k) - 1 do
        let env v = mask land (1 lsl (v - 1)) <> 0 in
        let popcount = List.length (List.filter env (List.init k (fun i -> i + 1))) in
        if Formula.eval env f <> (popcount >= t) then ok := false
      done;
      !ok)

let random_bnn ~k ~seed =
  let rng = Splitmix.create seed in
  let h = 2 + Splitmix.int rng 3 in
  {
    Mcml_ml.Bnn.w1 =
      Array.init h (fun _ -> Array.init k (fun _ -> if Splitmix.bool rng then 1 else -1));
    b1 = Array.init h (fun _ -> Splitmix.int rng 5 - 2);
    w2 = Array.init h (fun _ -> if Splitmix.bool rng then 1 else -1);
    b2 = Splitmix.int rng 3 - 1;
  }

let bnn_formula_matches_predict =
  qtest "Bnn2cnf.formula_of = Bnn.predict"
    QCheck2.Gen.(pair (int_bound 10_000) (int_range 2 7))
    (fun (seed, k) ->
      let bnn = random_bnn ~k ~seed in
      let f = Bnn2cnf.formula_of bnn in
      let ok = ref true in
      for mask = 0 to (1 lsl k) - 1 do
        let x = Array.init k (fun i -> mask land (1 lsl i) <> 0) in
        if Formula.eval (fun v -> x.(v - 1)) f <> Mcml_ml.Bnn.predict bnn x then
          ok := false
      done;
      !ok)

let bnn_cnf_counts_match =
  qtest ~count:60 "mc(BNN side) = exhaustive prediction count"
    QCheck2.Gen.(pair (int_bound 10_000) (int_range 2 6))
    (fun (seed, k) ->
      let bnn = random_bnn ~k ~seed in
      let count_pred label =
        let n = ref 0 in
        for mask = 0 to (1 lsl k) - 1 do
          let x = Array.init k (fun i -> mask land (1 lsl i) <> 0) in
          if Mcml_ml.Bnn.predict bnn x = label then incr n
        done;
        !n
      in
      List.for_all
        (fun label ->
          Bignat.equal
            (Mcml_counting.Exact.count (Bnn2cnf.cnf_of_label ~nfeatures:k bnn ~label))
            (Bignat.of_int (count_pred label)))
        [ true; false ])

let bnn_accmc_matches_exhaustive () =
  (* train a real BNN on PartialOrder at scope 3 and check its AccMC
     counts against exhaustive evaluation, exactly as for trees *)
  let prop = Props.find_exn "PartialOrder" in
  let data =
    Pipeline.generate prop { Pipeline.scope = 3; symmetry = false; max_positives = 300; seed = 51 }
  in
  let bnn =
    Mcml_ml.Bnn.train
      ~params:{ Mcml_ml.Bnn.hidden = 8; epochs = 10; learning_rate = 0.05 }
      ~rng:(Splitmix.create 52) data.Pipeline.dataset
  in
  let phi, not_phi = Pipeline.ground_truth prop ~scope:3 ~symmetry:false in
  let space = Pipeline.space_cnf ~scope:3 ~symmetry:false in
  let counts =
    Option.get (Bnn2cnf.accmc ~backend ~phi ~not_phi ~space ~nprimary:9 bnn)
  in
  (* exhaustive oracle *)
  let expected = ref Metrics.zero in
  let bits = Array.make 9 false in
  for mask = 0 to 511 do
    for b = 0 to 8 do
      bits.(b) <- mask land (1 lsl b) <> 0
    done;
    let actual = prop.Props.check ~scope:3 bits in
    let predicted = Mcml_ml.Bnn.predict bnn bits in
    expected :=
      Metrics.add !expected
        (match (predicted, actual) with
        | true, true -> { Metrics.zero with Metrics.tp = 1.0 }
        | true, false -> { Metrics.zero with Metrics.fp = 1.0 }
        | false, false -> { Metrics.zero with Metrics.tn = 1.0 }
        | false, true -> { Metrics.zero with Metrics.fn = 1.0 })
  done;
  let got = Accmc.confusion counts in
  check (Alcotest.float 1e-9) "tp" (!expected).Metrics.tp got.Metrics.tp;
  check (Alcotest.float 1e-9) "fp" (!expected).Metrics.fp got.Metrics.fp;
  check (Alcotest.float 1e-9) "tn" (!expected).Metrics.tn got.Metrics.tn;
  check (Alcotest.float 1e-9) "fn" (!expected).Metrics.fn got.Metrics.fn

(* --- accmc --------------------------------------------------------------------- *)

(* oracle: exhaustive confusion of a tree against a property at scope 3 *)
let exhaustive_confusion prop tree ~universe =
  let scope = 3 in
  let k = scope * scope in
  let c = ref Metrics.zero in
  let bits = Array.make k false in
  for mask = 0 to (1 lsl k) - 1 do
    for b = 0 to k - 1 do
      bits.(b) <- mask land (1 lsl b) <> 0
    done;
    if universe bits then begin
      let actual = prop.Props.check ~scope bits in
      let predicted = Decision_tree.predict tree bits in
      let add field = c := Metrics.add !c field in
      match (predicted, actual) with
      | true, true -> add { Metrics.zero with Metrics.tp = 1.0 }
      | true, false -> add { Metrics.zero with Metrics.fp = 1.0 }
      | false, false -> add { Metrics.zero with Metrics.tn = 1.0 }
      | false, true -> add { Metrics.zero with Metrics.fn = 1.0 }
    end
  done;
  !c

let train_on prop ~scope ~seed =
  let data =
    Pipeline.generate prop { Pipeline.scope; symmetry = false; max_positives = 300; seed }
  in
  Option.get (Model.train_tree ~seed:(seed + 1) data.Pipeline.dataset).Model.tree

let accmc_matches_exhaustive prop =
  Alcotest.test_case
    (Printf.sprintf "AccMC = exhaustive confusion: %s" prop.Props.name)
    `Slow
    (fun () ->
      let tree = train_on prop ~scope:3 ~seed:5 in
      let counts =
        Option.get
          (Pipeline.accmc ~backend ~prop ~scope:3 ~eval_symmetry:false tree)
      in
      let got = Accmc.confusion counts in
      let expected = exhaustive_confusion prop tree ~universe:(fun _ -> true) in
      List.iter
        (fun (name, g, e) -> check (Alcotest.float 1e-9) name e g)
        [
          ("tp", got.Metrics.tp, expected.Metrics.tp);
          ("fp", got.Metrics.fp, expected.Metrics.fp);
          ("tn", got.Metrics.tn, expected.Metrics.tn);
          ("fn", got.Metrics.fn, expected.Metrics.fn);
        ])

(* Exact AccMC against an oracle that shares no code with the
   translation: the tree's own predictions and the property's
   hand-written checker over every input of the full space.  Scope 4
   reaches 2^16 inputs, past the scope-3 cases above. *)
let accmc_matches_eval_all () =
  let confusion = Alcotest.testable Metrics.pp ( = ) in
  List.iter
    (fun (scope, skipped) ->
      let unbalanceable =
        List.filter_map
          (fun prop ->
            match train_on prop ~scope ~seed:21 with
            | exception Pipeline.Unbalanceable _ -> Some prop.Props.name
            | tree ->
                check confusion
                  (Printf.sprintf "%s at scope %d" prop.Props.name scope)
                  (Decision_tree.eval_all tree ~scope_bits:(scope * scope)
                     (prop.Props.check ~scope))
                  (Accmc.confusion
                     (Option.get
                        (Pipeline.accmc ~backend ~prop ~scope ~eval_symmetry:false tree)));
                None)
          Props.all
      in
      check Alcotest.(list string) (Printf.sprintf "unbalanceable at scope %d" scope) skipped
        unbalanceable)
    [ (3, [ "Surjective" ]); (4, []) ]

let accmc_symmetry_universe () =
  (* with eval_symmetry the four counts live in the lex-leader universe *)
  let prop = Props.find_exn "PartialOrder" in
  let tree = train_on prop ~scope:3 ~seed:6 in
  let counts =
    Option.get (Pipeline.accmc ~backend ~prop ~scope:3 ~eval_symmetry:true tree)
  in
  let universe bits =
    Mcml_alloy.Symmetry.is_lex_leader
      (Mcml_alloy.Instance.of_bits (Props.spec ()) ~scope:3 bits)
  in
  let expected = exhaustive_confusion prop tree ~universe in
  let got = Accmc.confusion counts in
  check (Alcotest.float 1e-9) "tp" expected.Metrics.tp got.Metrics.tp;
  check (Alcotest.float 1e-9) "fp" expected.Metrics.fp got.Metrics.fp;
  check (Alcotest.float 1e-9) "tn" expected.Metrics.tn got.Metrics.tn;
  check (Alcotest.float 1e-9) "fn" expected.Metrics.fn got.Metrics.fn

(* The conditioned exact route against the paper's literal reduction
   (Tree2CNF sides, four brute-force counts), bit for bit, on every
   property in both universes.  Each query is asked twice: the second
   answer comes from the kept forms.  Trees learn from symmetry-broken
   data: unrestricted Surjective has too few negatives to balance at
   scope 3. *)
let accmc_conditioned_matches_brute () =
  List.iter
    (fun prop ->
      let data =
        Pipeline.generate prop { Pipeline.scope = 3; symmetry = true; max_positives = 300; seed = 7 }
      in
      let tree = Option.get (Model.train_tree ~seed:8 data.Pipeline.dataset).Model.tree in
      List.iter
        (fun eval_symmetry ->
          let phi, not_phi = Pipeline.ground_truth prop ~scope:3 ~symmetry:eval_symmetry in
          let want =
            Option.get
              (Accmc.counts ~backend:Mcml_counting.Counter.Brute ~phi ~not_phi
                 ~space:(Pipeline.space_cnf ~scope:3 ~symmetry:eval_symmetry)
                 ~nprimary:9 tree)
          in
          List.iter
            (fun ask ->
              let got = Option.get (Pipeline.accmc ~backend ~prop ~scope:3 ~eval_symmetry tree) in
              List.iter
                (fun (field, f) ->
                  check Alcotest.string
                    (Printf.sprintf "%s sym=%b %s (%s)" prop.Props.name eval_symmetry field ask)
                    (Bignat.to_string (f want)) (Bignat.to_string (f got)))
                [
                  ("tp", fun c -> c.Accmc.tp);
                  ("fp", fun c -> c.Accmc.fp);
                  ("tn", fun c -> c.Accmc.tn);
                  ("fn", fun c -> c.Accmc.fn);
                ])
            [ "first"; "kept" ])
        [ false; true ])
    Props.all

(* AccMC conditions one side of a tree and takes the other from the
   form's total, so a broken partition would not show in its answers.
   Here both sides of two trained trees per property are conditioned on
   ϕ and on the universe, at scopes 4 and 5 with symmetry: each pair
   sums to the total the compile kept, which is the projected count. *)
let accmc_sides_sum_to_totals () =
  let module Dnnf = Mcml_counting.Exact.Dnnf in
  List.iter
    (fun scope ->
      let space = Pipeline.space_cnf ~scope ~symmetry:true in
      let universe = Dnnf.compile space in
      check Alcotest.string
        (Printf.sprintf "scope %d: the universe's total is its count" scope)
        (Bignat.to_string (Mcml_counting.Exact.count space))
        (Bignat.to_string (Dnnf.total universe));
      List.iter
        (fun prop ->
          let cnf =
            Mcml_alloy.Analyzer.cnf ~symmetry:true (Props.analyzer ~scope) ~pred:prop.Props.pred
          in
          let phi = Dnnf.compile cnf in
          check Alcotest.string
            (Printf.sprintf "%s scope %d: the total is the count" prop.Props.name scope)
            (Bignat.to_string (Mcml_counting.Exact.count cnf))
            (Bignat.to_string (Dnnf.total phi));
          let data =
            Pipeline.generate prop { Pipeline.scope; symmetry = true; max_positives = 300; seed = 11 }
          in
          List.iter
            (fun seed ->
              let tree = Option.get (Model.train_tree ~seed data.Pipeline.dataset).Model.tree in
              let side label =
                List.filter_map
                  (fun (conds, leaf) ->
                    if leaf = label then
                      Some (Array.of_list (List.map Tree2cnf.lit_of_condition conds))
                    else None)
                  (Decision_tree.paths tree)
              in
              List.iter
                (fun (what, form) ->
                  check Alcotest.string
                    (Printf.sprintf "%s scope %d tree %d: %s sides" prop.Props.name scope seed what)
                    (Bignat.to_string (Dnnf.total form))
                    (Bignat.to_string
                       (Bignat.add (Dnnf.condition form (side true)) (Dnnf.condition form (side false)))))
                [ ("phi", phi); ("universe", universe) ])
            [ 12; 13 ])
        Props.all)
    [ 4; 5 ]

let accmc_timeout_not_kept () =
  (* scope 2 is compiled nowhere else in this suite, so the budget-0
     call is the first to compile its symmetry-broken universe: it must
     time out, and the next call must compile it afresh.  A finished
     compile answers under any budget. *)
  let prop = Props.find_exn "PartialOrder" in
  let tree = random_tree ~k:4 ~seed:3 in
  check Alcotest.bool "budget 0 times out" true
    (Pipeline.accmc ~budget:0.0 ~backend ~prop ~scope:2 ~eval_symmetry:true tree = None);
  check Alcotest.bool "the default budget completes" true
    (Pipeline.accmc ~backend ~prop ~scope:2 ~eval_symmetry:true tree <> None);
  check Alcotest.bool "budget 0 now answers from the kept forms" true
    (Pipeline.accmc ~budget:0.0 ~backend ~prop ~scope:2 ~eval_symmetry:true tree <> None)

let accmc_check_total () =
  let prop = Props.find_exn "Function" in
  let tree = train_on prop ~scope:3 ~seed:8 in
  let counts =
    Option.get (Pipeline.accmc ~backend ~prop ~scope:3 ~eval_symmetry:false tree)
  in
  check Alcotest.bool "counts bounded by the space" true
    (Accmc.check_total counts ~nprimary:9);
  (* on the unconstrained universe the partition is exact *)
  let total =
    List.fold_left Bignat.add Bignat.zero
      [ counts.Accmc.tp; counts.Accmc.fp; counts.Accmc.tn; counts.Accmc.fn ]
  in
  check Alcotest.string "exact partition" (Bignat.to_string (Bignat.pow2 9))
    (Bignat.to_string total)

(* --- diffmc --------------------------------------------------------------------- *)

let diffmc_matches_exhaustive =
  qtest ~count:40 "DiffMC = exhaustive double evaluation"
    QCheck2.Gen.(pair (int_bound 10_000) (int_bound 10_000))
    (fun (s1, s2) ->
      let k = 6 in
      let d1 = random_tree ~k ~seed:s1 and d2 = random_tree ~k ~seed:s2 in
      let c = Option.get (Diffmc.counts ~backend ~nprimary:k d1 d2) in
      let tt = ref 0 and tf = ref 0 and ft = ref 0 and ff = ref 0 in
      for mask = 0 to (1 lsl k) - 1 do
        let f = Array.init k (fun b -> mask land (1 lsl b) <> 0) in
        match (Decision_tree.predict d1 f, Decision_tree.predict d2 f) with
        | true, true -> incr tt
        | true, false -> incr tf
        | false, true -> incr ft
        | false, false -> incr ff
      done;
      Bignat.equal c.Diffmc.tt (Bignat.of_int !tt)
      && Bignat.equal c.Diffmc.tf (Bignat.of_int !tf)
      && Bignat.equal c.Diffmc.ft (Bignat.of_int !ft)
      && Bignat.equal c.Diffmc.ff (Bignat.of_int !ff)
      && Diffmc.check_total c ~nprimary:k)

let diffmc_exact_matches_brute () =
  (* path-pair sums against the four brute-force Tree2CNF counts, with
     two features no tree tests and a hand-built tree that tests one
     feature twice on a path, once each way *)
  let twice =
    {
      Decision_tree.nfeatures = 6;
      root =
        Decision_tree.Split
          {
            feature = 2;
            if_false =
              Decision_tree.Split
                { feature = 2; if_false = Decision_tree.Leaf true; if_true = Decision_tree.Leaf false };
            if_true =
              Decision_tree.Split
                { feature = 4; if_false = Decision_tree.Leaf false; if_true = Decision_tree.Leaf true };
          };
    }
  in
  let trees = twice :: List.init 5 (fun seed -> random_tree ~k:6 ~seed) in
  List.iter
    (fun d1 ->
      List.iter
        (fun d2 ->
          let run backend = Option.get (Diffmc.counts ~backend ~nprimary:8 d1 d2) in
          let e = run backend and b = run Mcml_counting.Counter.Brute in
          List.iter
            (fun (field, f) ->
              check Alcotest.string field (Bignat.to_string (f b)) (Bignat.to_string (f e)))
            [
              ("tt", fun c -> c.Diffmc.tt);
              ("tf", fun c -> c.Diffmc.tf);
              ("ft", fun c -> c.Diffmc.ft);
              ("ff", fun c -> c.Diffmc.ff);
            ])
        trees)
    trees

let diffmc_self_is_zero =
  qtest ~count:40 "diff(d, d) = 0" QCheck2.Gen.(int_bound 10_000) (fun seed ->
      let d = random_tree ~k:5 ~seed in
      let c = Option.get (Diffmc.counts ~backend ~nprimary:5 d d) in
      Diffmc.diff c ~nprimary:5 = 0.0
      && Bignat.is_zero c.Diffmc.tf && Bignat.is_zero c.Diffmc.ft)

let diffmc_sim_complement =
  qtest ~count:40 "sim = 1 - diff" QCheck2.Gen.(pair (int_bound 10_000) (int_bound 10_000))
    (fun (s1, s2) ->
      let d1 = random_tree ~k:5 ~seed:s1 and d2 = random_tree ~k:5 ~seed:s2 in
      let c = Option.get (Diffmc.counts ~backend ~nprimary:5 d1 d2) in
      Float.abs (Diffmc.sim c ~nprimary:5 +. Diffmc.diff c ~nprimary:5 -. 1.0) < 1e-12)

(* --- pipeline ---------------------------------------------------------------------- *)

let pipeline_generate_invariants () =
  let prop = Props.find_exn "PartialOrder" in
  let data =
    Pipeline.generate prop { Pipeline.scope = 4; symmetry = false; max_positives = 500; seed = 9 }
  in
  let ds = data.Pipeline.dataset in
  check Alcotest.int "balanced" (Dataset.num_positive ds) (Dataset.num_negative ds);
  (* every sample's label matches the property checker *)
  Array.iter
    (fun s ->
      check Alcotest.bool "label correct" s.Dataset.label
        (prop.Props.check ~scope:4 s.Dataset.features))
    ds.Dataset.samples;
  (* capped enumeration is flagged *)
  check Alcotest.bool "completeness flag" true
    (data.Pipeline.positives_complete = (data.Pipeline.num_positive_solutions < 500))

let pipeline_negatives_distinct () =
  let prop = Props.find_exn "Reflexive" in
  let data =
    Pipeline.generate prop { Pipeline.scope = 3; symmetry = false; max_positives = 64; seed = 10 }
  in
  let ds = data.Pipeline.dataset in
  let negs =
    Array.to_list ds.Dataset.samples
    |> List.filter (fun s -> not s.Dataset.label)
    |> List.map (fun s -> Array.to_list s.Dataset.features)
  in
  check Alcotest.int "negatives distinct" (List.length negs)
    (List.length (List.sort_uniq compare negs))

let pipeline_ground_truth_count () =
  let prop = Props.find_exn "Equivalence" in
  let phi, not_phi = Pipeline.ground_truth prop ~scope:4 ~symmetry:false in
  let c_phi = Mcml_counting.Exact.count phi in
  let c_not = Mcml_counting.Exact.count not_phi in
  check Alcotest.string "mc(phi) = Bell(4)" "15" (Bignat.to_string c_phi);
  check Alcotest.string "mc(phi) + mc(!phi) = 2^16" (Bignat.to_string (Bignat.pow2 16))
    (Bignat.to_string (Bignat.add c_phi c_not))

let pipeline_ratio_fractions () =
  check (Alcotest.float 1e-9) "75:25" 0.75 (Pipeline.train_fraction_of_ratio (75, 25));
  check (Alcotest.float 1e-9) "1:99" 0.01 (Pipeline.train_fraction_of_ratio (1, 99))

(* --- experiments --------------------------------------------------------------------- *)

let tiny_cfg =
  {
    Experiments.fast with
    Experiments.max_scope = 4;
    threshold = 20;
    max_positives = 200;
    budget = 30.0;
    ratios = [ (75, 25) ];
    properties = [ Props.find_exn "Reflexive"; Props.find_exn "PartialOrder" ];
  }

let experiments_scope_for () =
  check Alcotest.bool "min scope respected" true
    (Experiments.scope_for tiny_cfg (Props.find_exn "Reflexive") ~symmetry:false
    >= tiny_cfg.Experiments.min_scope);
  check Alcotest.bool "max scope respected" true
    (Experiments.scope_for tiny_cfg (Props.find_exn "Equivalence") ~symmetry:true
    <= tiny_cfg.Experiments.max_scope)

let experiments_model_performance () =
  let rows =
    Experiments.model_performance tiny_cfg ~prop:(Props.find_exn "PartialOrder")
      ~symmetry:true
  in
  check Alcotest.int "one ratio x six models" 6 (List.length rows);
  List.iter
    (fun (r : Experiments.perf_row) ->
      let acc = Metrics.accuracy r.Experiments.p_metrics in
      if acc < 0.5 then
        Alcotest.failf "%s below chance: %.2f"
          (Model.name_of r.Experiments.p_model)
          acc)
    rows

let experiments_dt_generalization () =
  let rows = Experiments.dt_generalization tiny_cfg ~data_symmetry:false ~eval_symmetry:false in
  check Alcotest.int "two properties" 2 (List.length rows);
  List.iter
    (fun (r : Experiments.dt_row) ->
      match r.Experiments.d_phi with
      | None -> Alcotest.failf "%s timed out at scope 4" r.Experiments.d_prop
      | Some counts ->
          check Alcotest.bool
            (r.Experiments.d_prop ^ " totals bounded")
            true
            (Accmc.check_total counts ~nprimary:(r.Experiments.d_scope * r.Experiments.d_scope)))
    rows;
  (* Reflexive must stay perfect over the whole space (paper's outlier) *)
  let reflexive =
    List.find (fun (r : Experiments.dt_row) -> r.Experiments.d_prop = "Reflexive") rows
  in
  (match reflexive.Experiments.d_phi with
  | Some counts ->
      let c = Accmc.confusion counts in
      check (Alcotest.float 1e-9) "reflexive precision 1.0" 1.0 (Metrics.precision c)
  | None -> Alcotest.fail "reflexive timed out")

let experiments_tree_differences () =
  let rows = Experiments.tree_differences tiny_cfg in
  List.iter
    (fun (r : Experiments.diff_row) ->
      match (r.Experiments.f_counts, r.Experiments.f_diff) with
      | Some c, Some d ->
          check Alcotest.bool (r.Experiments.f_prop ^ " diff in [0,100]") true
            (d >= 0.0 && d <= 100.0);
          check Alcotest.bool
            (r.Experiments.f_prop ^ " counts partition the space")
            true
            (Diffmc.check_total c
               ~nprimary:(r.Experiments.f_scope * r.Experiments.f_scope))
      | _ -> Alcotest.failf "%s timed out" r.Experiments.f_prop)
    rows

let experiments_class_ratio () =
  let rows =
    Experiments.class_ratio_study tiny_cfg ~prop:(Props.find_exn "Antisymmetric")
  in
  check Alcotest.int "seven ratios" 7 (List.length rows);
  List.iter
    (fun (r : Experiments.t9_row) ->
      check Alcotest.bool "traditional precision sane" true
        (r.Experiments.r_traditional >= 0.0 && r.Experiments.r_traditional <= 1.0);
      check Alcotest.bool "mcml precision sane" true
        (r.Experiments.r_mcml >= 0.0 && r.Experiments.r_mcml <= 1.0))
    rows

let ablation_symmetry_invariants () =
  let cfg =
    { tiny_cfg with Experiments.properties = [ Props.find_exn "Equivalence"; Props.find_exn "TotalOrder" ] }
  in
  let rows = Experiments.symmetry_ablation cfg in
  List.iter
    (fun (r : Experiments.sym_row) ->
      check Alcotest.bool (r.Experiments.s_prop ^ ": full <= partial") true
        (r.Experiments.s_full <= r.Experiments.s_partial);
      check Alcotest.bool (r.Experiments.s_prop ^ ": partial <= none") true
        (r.Experiments.s_partial <= r.Experiments.s_none);
      check Alcotest.bool (r.Experiments.s_prop ^ ": full >= 1") true
        (r.Experiments.s_full >= 1))
    rows;
  (* the known orbit counts at scope 4 *)
  let equiv = List.find (fun (r : Experiments.sym_row) -> r.Experiments.s_prop = "Equivalence") rows in
  check Alcotest.int "equivalence orbits = 5" 5 equiv.Experiments.s_full;
  let total = List.find (fun (r : Experiments.sym_row) -> r.Experiments.s_prop = "TotalOrder") rows in
  check Alcotest.int "total order orbits = 1" 1 total.Experiments.s_full

let () =
  Alcotest.run "mcml"
    [
      ( "tree2cnf",
        [
          tree2cnf_counts_match_predictions;
          tree2cnf_partitions_space;
          tree2cnf_formula_agrees;
          Alcotest.test_case "no auxiliary variables" `Quick tree2cnf_no_aux_vars;
          Alcotest.test_case "constant tree" `Quick tree2cnf_constant_tree;
        ] );
      ( "bnn2cnf",
        [
          threshold_matches_popcount;
          bnn_formula_matches_predict;
          bnn_cnf_counts_match;
          Alcotest.test_case "BNN AccMC = exhaustive" `Slow bnn_accmc_matches_exhaustive;
        ] );
      ( "accmc",
        List.map accmc_matches_exhaustive
          [
            Props.find_exn "Reflexive";
            Props.find_exn "PartialOrder";
            Props.find_exn "Function";
            Props.find_exn "Equivalence";
          ]
        @ [
            Alcotest.test_case "exact AccMC = eval_all, 16 properties at scopes 3 and 4" `Slow
              accmc_matches_eval_all;
            Alcotest.test_case "symmetry-constrained universe" `Slow accmc_symmetry_universe;
            Alcotest.test_case "conditioned = brute Tree2CNF counts, 16 properties" `Slow
              accmc_conditioned_matches_brute;
            Alcotest.test_case "sides sum to the kept totals, 16 properties at scopes 4 and 5" `Slow
              accmc_sides_sum_to_totals;
            Alcotest.test_case "a timeout is never kept" `Quick accmc_timeout_not_kept;
            Alcotest.test_case "counts partition the space" `Quick accmc_check_total;
          ] );
      ( "diffmc",
        [
          diffmc_matches_exhaustive;
          Alcotest.test_case "exact = brute" `Quick diffmc_exact_matches_brute;
          diffmc_self_is_zero;
          diffmc_sim_complement;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "generate invariants" `Quick pipeline_generate_invariants;
          Alcotest.test_case "negatives distinct" `Quick pipeline_negatives_distinct;
          Alcotest.test_case "ground truth counts" `Quick pipeline_ground_truth_count;
          Alcotest.test_case "ratio fractions" `Quick pipeline_ratio_fractions;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "scope selection" `Quick experiments_scope_for;
          Alcotest.test_case "model performance rows" `Slow experiments_model_performance;
          Alcotest.test_case "dt generalization rows" `Slow experiments_dt_generalization;
          Alcotest.test_case "tree differences rows" `Slow experiments_tree_differences;
          Alcotest.test_case "class ratio rows" `Slow experiments_class_ratio;
          Alcotest.test_case "symmetry ablation invariants" `Slow ablation_symmetry_invariants;
        ] );
    ]
