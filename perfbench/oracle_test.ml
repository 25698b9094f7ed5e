(* The benchmark's oracles accept true answers and report each planted
   wrong one. *)

open Mcml
open Mcml_logic
module Props = Mcml_props.Props
module Metrics = Mcml_ml.Metrics

let prop = Props.find_exn "PartialOrder"
let ( ++ ) = Bignat.add
let one = Bignat.one
let accepts name problems = Alcotest.(check (list string)) name [] problems

let rejects name problems =
  Alcotest.(check bool) (name ^ " is reported") true (problems <> [])

let exact_count ~scope ~symmetry ~negate =
  (Option.get
     (Mcml_alloy.Analyzer.count ~negate ~symmetry ~backend:Mcml_counting.Counter.Exact
        (Props.analyzer ~scope) ~pred:prop.Props.pred))
    .Mcml_counting.Counter.count

let test_lex_leader () =
  (* the restated symmetry predicate selects the instances the
     analyzer's translation counts *)
  List.iter
    (fun scope ->
      Alcotest.(check string)
        (Printf.sprintf "scope %d" scope)
        (Bignat.to_string (exact_count ~scope ~symmetry:true ~negate:false))
        (Bignat.to_string (Oracle.count_reference prop ~scope ~symmetry:true ~negate:false)))
    [ 3; 4 ]

let test_count () =
  List.iter
    (fun (scope, symmetry, negate) ->
      let name = Printf.sprintf "scope %d sym %b neg %b" scope symmetry negate in
      let truth = exact_count ~scope ~symmetry ~negate in
      accepts name (Oracle.check_count prop ~scope ~symmetry ~negate truth);
      rejects name (Oracle.check_count prop ~scope ~symmetry ~negate (truth ++ one)))
    [ (4, false, true); (4, true, true); (5, true, false) ]

let tree_at scope =
  let data =
    Pipeline.generate prop { Pipeline.scope; symmetry = false; max_positives = 300; seed = 3 }
  in
  Option.get (Mcml_ml.Model.train_tree ~seed:4 data.Pipeline.dataset).Mcml_ml.Model.tree

let accmc ~scope ~eval_symmetry tree =
  Option.get (Pipeline.accmc ~backend:Mcml_counting.Counter.Exact ~prop ~scope ~eval_symmetry tree)

let test_accmc () =
  List.iter
    (fun (scope, eval_symmetry) ->
      let name = Printf.sprintf "scope %d sym %b" scope eval_symmetry in
      let tree = tree_at scope in
      let c = accmc ~scope ~eval_symmetry tree in
      accepts name (Oracle.check_accmc prop ~scope ~eval_symmetry tree c);
      rejects (name ^ " fp") (Oracle.check_accmc prop ~scope ~eval_symmetry tree { c with Accmc.fp = c.Accmc.fp ++ one });
      rejects (name ^ " tn")
        (Oracle.check_accmc prop ~scope ~eval_symmetry tree { c with Accmc.tn = c.Accmc.tn ++ one }))
    [ (4, false); (4, true); (5, false) ]

let test_accmc_groups () =
  let tree = tree_at 5 in
  let c = accmc ~scope:5 ~eval_symmetry:true tree in
  let key = (prop.Props.name, 5, true) in
  accepts "same ground truth" (Oracle.check_accmc_groups [ (key, c); (key, c) ]);
  rejects "positives differ"
    (Oracle.check_accmc_groups [ (key, c); (key, { c with Accmc.fn = c.Accmc.fn ++ one }) ]);
  rejects "universe differs"
    (Oracle.check_accmc_groups
       [ (key, c); (("Reflexive", 5, true), { c with Accmc.tn = c.Accmc.tn ++ one }) ])

let test_table1 () =
  let scope = 4 in
  let s n = Bignat.to_string n in
  let sym = exact_count ~scope ~symmetry:true ~negate:false in
  let nosym = exact_count ~scope ~symmetry:false ~negate:false in
  let row =
    {
      Experiments.t1_prop = prop.Props.name;
      t1_scope = scope;
      t1_state_bits = scope * scope;
      t1_alloy = s sym;
      t1_approx_sym = s sym;
      t1_approx_nosym = s (nosym ++ one);
      t1_exact_sym = s sym;
      t1_exact_nosym = s nosym;
    }
  in
  let check = Oracle.check_table1 ~epsilon:0.8 in
  accepts "true row" (check row);
  accepts "capped enumeration" (check { row with Experiments.t1_alloy = ">=3" });
  rejects "exact_nosym" (check { row with Experiments.t1_exact_nosym = s (nosym ++ one) });
  rejects "alloy" (check { row with Experiments.t1_alloy = s (sym ++ one) });
  rejects "approx band" (check { row with Experiments.t1_approx_sym = s (Bignat.shift_left sym 1) });
  rejects "timeout" (check { row with Experiments.t1_exact_sym = "-" })

let test_rows () =
  let scope = 4 in
  let c = accmc ~scope ~eval_symmetry:false (tree_at scope) in
  let dt phi =
    { Experiments.d_prop = prop.Props.name; d_scope = scope; d_test = Metrics.zero; d_phi = phi }
  in
  accepts "dt" (Oracle.check_dt ~eval_symmetry:false (dt (Some c)));
  rejects "dt total" (Oracle.check_dt ~eval_symmetry:false (dt (Some { c with Accmc.tp = c.Accmc.tp ++ one })));
  rejects "dt timeout" (Oracle.check_dt ~eval_symmetry:true (dt None));
  let quarter = Bignat.pow2 ((scope * scope) - 2) in
  let d = { Diffmc.tt = quarter; tf = quarter; ft = quarter; ff = quarter; time = 0.0 } in
  let diff counts =
    { Experiments.f_prop = prop.Props.name; f_scope = scope; f_counts = counts; f_diff = None }
  in
  accepts "diff" (Oracle.check_diff (diff (Some d)));
  rejects "diff total" (Oracle.check_diff (diff (Some { d with Diffmc.ff = quarter ++ one })));
  rejects "diff timeout" (Oracle.check_diff (diff None));
  let ratio p = { Experiments.r_ratio = (1, 1); r_traditional = 0.5; r_mcml = p } in
  accepts "class ratio" (Oracle.check_class_ratio (ratio 0.5));
  rejects "class ratio timeout" (Oracle.check_class_ratio (ratio Float.nan));
  let perf total =
    {
      Experiments.p_ratio = (75, 25);
      p_model = Mcml_ml.Model.DT;
      p_metrics = { Metrics.zero with Metrics.tp = total };
    }
  in
  accepts "performance" (Oracle.check_performance [ perf 10.0; perf 10.0 ]);
  rejects "performance" (Oracle.check_performance [ perf 10.0; perf 11.0 ])

let () =
  Alcotest.run "perfbench oracles"
    [
      ( "oracles",
        [
          Alcotest.test_case "lex-leader restatement" `Quick test_lex_leader;
          Alcotest.test_case "served counts" `Quick test_count;
          Alcotest.test_case "accmc answers" `Quick test_accmc;
          Alcotest.test_case "accmc groups" `Quick test_accmc_groups;
          Alcotest.test_case "table 1 rows" `Quick test_table1;
          Alcotest.test_case "table rows" `Quick test_rows;
        ] );
    ]
