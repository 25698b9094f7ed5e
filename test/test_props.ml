(* Tests for the 16-property registry: checkers vs the Alloy evaluator,
   closed forms vs exhaustive enumeration, trace enumeration vs the SAT
   oracle, scope selection. *)

open Mcml_logic
open Mcml_props

let check = Alcotest.check
let qtest ?(count = 200) name gen prop = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let registry () =
  check Alcotest.int "sixteen properties" 16 (List.length Props.all);
  let names = List.map (fun p -> p.Props.name) Props.all in
  check Alcotest.int "unique names" 16 (List.length (List.sort_uniq compare names));
  check Alcotest.bool "sorted like the paper (alphabetical)" true
    (names = List.sort compare names)

let find_case_insensitive () =
  check Alcotest.bool "lowercase" true (Props.find "partialorder" <> None);
  check Alcotest.bool "mixed" true (Props.find "PaRtIaLoRdEr" <> None);
  check Alcotest.bool "unknown" true (Props.find "NotAProperty" = None);
  Alcotest.check_raises "find_exn"
    (Invalid_argument "Props.find_exn: unknown property \"nope\"") (fun () ->
      ignore (Props.find_exn "nope"))

(* every direct checker agrees with the Alloy evaluator on random
   instances — one qcheck property per relational property, so a failure
   names the culprit *)
let checker_vs_evaluator prop =
  qtest ~count:120
    (Printf.sprintf "checker = evaluator: %s" prop.Props.name)
    QCheck2.Gen.(pair (int_bound 10_000) (int_range 3 5))
    (fun (seed, scope) ->
      let analyzer = Props.analyzer ~scope in
      let inst =
        Mcml_alloy.Instance.random (Splitmix.create seed) (Props.spec ()) ~scope
      in
      let bits = Mcml_alloy.Instance.to_bits inst in
      prop.Props.check ~scope bits
      = Mcml_alloy.Analyzer.evaluate analyzer ~pred:prop.Props.pred inst)

(* closed forms are validated against brute-force enumeration of ALL
   2^(n^2) matrices at scope 3 — fully independent of the SAT pipeline *)
let closed_form_vs_truth prop =
  Alcotest.test_case
    (Printf.sprintf "closed form matches exhaustive truth: %s" prop.Props.name)
    `Quick
    (fun () ->
      let scope = 3 in
      let n2 = scope * scope in
      let count = ref 0 in
      let bits = Array.make n2 false in
      for mask = 0 to (1 lsl n2) - 1 do
        for b = 0 to n2 - 1 do
          bits.(b) <- mask land (1 lsl b) <> 0
        done;
        if prop.Props.check ~scope bits then incr count
      done;
      match prop.Props.closed_form scope with
      | Some cf -> check Alcotest.string "count" (string_of_int !count) (Bignat.to_string cf)
      | None -> Alcotest.skip ())

(* Number of positive instances by exhaustive enumeration (the
   "Valid-SymBr (Alloy)" column of Table 1 when [symmetry]). *)
let count_positives prop ~scope ~symmetry =
  let insts, complete =
    Mcml_alloy.Analyzer.enumerate ~symmetry (Props.analyzer ~scope) ~pred:prop.Props.pred
  in
  if not complete then Alcotest.failf "%s: enumeration incomplete" prop.Props.name;
  List.length insts

(* enumeration through the full pipeline agrees with the closed form at
   scope 4 *)
let enumeration_vs_closed_form prop =
  Alcotest.test_case
    (Printf.sprintf "enumeration matches closed form: %s" prop.Props.name)
    `Slow
    (fun () ->
      let scope = 4 in
      match prop.Props.closed_form scope with
      | None -> Alcotest.skip ()
      | Some cf ->
          let n = count_positives prop ~scope ~symmetry:false in
          check Alcotest.string "count" (Bignat.to_string cf) (string_of_int n))

let bits_of = List.map Mcml_alloy.Instance.to_bits

(* the walk over the compiled trace and the blocking-clause oracle
   produce the same set of positives, with and without symmetry
   breaking, at every scope up to 4 *)
let enumeration_vs_oracle prop =
  Alcotest.test_case
    (Printf.sprintf "trace enumeration = SAT oracle (scopes 1-4): %s" prop.Props.name)
    `Slow
    (fun () ->
      List.iter
        (fun scope ->
          List.iter
            (fun symmetry ->
              let a = Props.analyzer ~scope in
              let pred = prop.Props.pred in
              let insts, complete = Mcml_alloy.Analyzer.enumerate ~symmetry a ~pred in
              let oracle = Enum_oracle.all (Mcml_alloy.Analyzer.cnf ~symmetry a ~pred) in
              let label = Printf.sprintf "scope %d sym %b" scope symmetry in
              check Alcotest.bool (label ^ ": complete") true complete;
              check
                Alcotest.(list (array bool))
                (label ^ ": same positives")
                (List.sort compare oracle)
                (List.sort compare (bits_of insts)))
            [ false; true ])
        [ 1; 2; 3; 4 ])

(* the capped enumeration the tables use: exactly min(count, 3000)
   distinct positives, every one a positive by the direct checker *)
let capped_enumeration prop =
  Alcotest.test_case
    (Printf.sprintf "capped enumeration at scope 5: %s" prop.Props.name)
    `Slow
    (fun () ->
      let scope = 5 and limit = 3000 in
      List.iter
        (fun symmetry ->
          let a = Props.analyzer ~scope in
          let insts, complete =
            Mcml_alloy.Analyzer.enumerate ~symmetry ~limit a ~pred:prop.Props.pred
          in
          let count =
            Mcml_counting.Exact.count (Mcml_alloy.Analyzer.cnf ~symmetry a ~pred:prop.Props.pred)
          in
          let want = min limit (Option.get (Bignat.to_int_opt count)) in
          let bits = bits_of insts in
          let label = Printf.sprintf "sym %b" symmetry in
          check Alcotest.int (label ^ ": min(count, limit)") want (List.length bits);
          check Alcotest.int (label ^ ": distinct") want
            (List.length (List.sort_uniq compare bits));
          check Alcotest.bool (label ^ ": complete iff count <= limit")
            (Bignat.compare count (Bignat.of_int limit) <= 0)
            complete;
          List.iter
            (fun b ->
              if not (prop.Props.check ~scope b) then Alcotest.failf "%s: a non-positive" label)
            bits)
        [ false; true ])

(* exact counter agrees with closed forms at scope 4 as well *)
let exact_count_vs_closed_form prop =
  Alcotest.test_case
    (Printf.sprintf "exact counter matches closed form: %s" prop.Props.name)
    `Slow
    (fun () ->
      let scope = 4 in
      match prop.Props.closed_form scope with
      | None -> Alcotest.skip ()
      | Some cf ->
          let analyzer = Props.analyzer ~scope in
          let cnf = Mcml_alloy.Analyzer.cnf analyzer ~pred:prop.Props.pred in
          check Alcotest.string "count" (Bignat.to_string cf)
            (Bignat.to_string (Mcml_counting.Exact.count cnf)))

let symmetry_reduces_counts () =
  (* partial symmetry breaking never increases, and for these properties
     strictly decreases, the number of solutions *)
  List.iter
    (fun name ->
      let prop = Props.find_exn name in
      let full = count_positives prop ~scope:4 ~symmetry:false in
      let broken = count_positives prop ~scope:4 ~symmetry:true in
      if broken > full then
        Alcotest.failf "%s: symmetry breaking increased count %d -> %d" name full broken;
      if broken = 0 then Alcotest.failf "%s: symmetry breaking removed everything" name;
      if name <> "Reflexive" && broken >= full then
        Alcotest.failf "%s: expected a strict reduction (%d vs %d)" name broken full)
    [ "Equivalence"; "TotalOrder"; "Function"; "PartialOrder" ]

let select_scope_respects_threshold () =
  let prop = Props.find_exn "Function" in
  (* Function has n^n positives: 27 at scope 3, 256 at scope 4 *)
  check Alcotest.int "threshold 100 -> scope 4" 4
    (Props.select_scope prop ~symmetry:false ~threshold:100 ~max_scope:7);
  check Alcotest.int "threshold 20 -> scope 3" 3
    (Props.select_scope prop ~symmetry:false ~threshold:20 ~max_scope:7);
  check Alcotest.int "cap respected" 2
    (Props.select_scope prop ~symmetry:false ~threshold:1_000_000 ~max_scope:2);
  (* with symmetry breaking the count decides: Equivalence keeps 2, 3
     and 5 positives at scopes 2, 3 and 4 (one per partition shape) *)
  let prop = Props.find_exn "Equivalence" in
  List.iter
    (fun scope ->
      check Alcotest.int
        (Printf.sprintf "symmetric threshold = count at scope %d" scope)
        scope
        (Props.select_scope prop ~symmetry:true
           ~threshold:(count_positives prop ~scope ~symmetry:true)
           ~max_scope:7))
    [ 2; 3; 4 ]

let specific_closed_forms () =
  let expect name scope value =
    let prop = Props.find_exn name in
    match prop.Props.closed_form scope with
    | Some c -> check Alcotest.string (Printf.sprintf "%s@%d" name scope) value (Bignat.to_string c)
    | None -> Alcotest.failf "%s has no closed form at scope %d" name scope
  in
  (* the paper's Table 1 exact counts (ProjMC, no symmetry breaking) *)
  expect "Antisymmetric" 5 "1889568";
  expect "Connex" 6 "14348907";
  expect "Function" 8 "16777216";
  expect "Functional" 8 "43046721";
  expect "Injective" 8 "16777216";
  expect "Irreflexive" 5 "1048576";
  expect "NonStrictOrder" 7 "6129859";
  expect "PartialOrder" 6 "8321472";
  expect "PreOrder" 7 "9535241";
  expect "Reflexive" 5 "1048576";
  expect "StrictOrder" 7 "6129859";
  expect "Transitive" 6 "9415189"

let () =
  Alcotest.run "props"
    [
      ( "registry",
        [
          Alcotest.test_case "sixteen unique properties" `Quick registry;
          Alcotest.test_case "find" `Quick find_case_insensitive;
        ] );
      ("checker-vs-evaluator", List.map checker_vs_evaluator Props.all);
      ("closed-form-vs-truth", List.map closed_form_vs_truth Props.all);
      ("enumeration-vs-closed-form", List.map enumeration_vs_closed_form Props.all);
      ("enumeration-vs-oracle", List.map enumeration_vs_oracle Props.all);
      ("capped-enumeration", List.map capped_enumeration Props.all);
      ("exact-count-vs-closed-form", List.map exact_count_vs_closed_form Props.all);
      ( "scopes-and-symmetry",
        [
          Alcotest.test_case "symmetry reduces counts" `Slow symmetry_reduces_counts;
          Alcotest.test_case "select_scope thresholds" `Quick select_scope_respects_threshold;
          Alcotest.test_case "paper Table 1 exact counts" `Quick specific_closed_forms;
        ] );
    ]
