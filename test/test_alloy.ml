(* Tests for the Alloy front end: lexer, parser, checker, semantics
   (evaluator and translator), instances, symmetry breaking, analyzer. *)

open Mcml_logic
open Mcml_alloy

let check = Alcotest.check
let qtest ?(count = 200) name gen prop = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let fig1 =
  {|
sig S { r: set S } // comment
pred Reflexive() { all s: S | s->s in r }
pred Symmetric() { all s, t: S | s->t in r implies t->s in r }
pred Transitive() { all s, t, u: S | s->t in r and t->u in r implies s->u in r }
pred Equivalence() { Reflexive and Symmetric and Transitive }
E4: run Equivalence for exactly 4 S
|}

(* --- lexer --------------------------------------------------------------- *)

let lexer_tokens () =
  let toks = Lexer.tokenize "sig S { r: set S } ~ ^ * -> != <=> => ! && ||" in
  let kinds = List.map fst toks in
  check Alcotest.int "token count" 19 (List.length kinds);
  check Alcotest.bool "arrow lexed" true (List.mem Lexer.ARROW kinds);
  check Alcotest.bool "iffarrow lexed" true (List.mem Lexer.IFFARROW kinds);
  check Alcotest.bool "neq lexed" true (List.mem Lexer.NEQ kinds)

let lexer_comments () =
  let toks = Lexer.tokenize "a // line\n b /* block\n comment */ c -- dash\n d" in
  let idents = List.filter_map (function Lexer.IDENT s, _ -> Some s | _ -> None) toks in
  check Alcotest.(list string) "comments skipped" [ "a"; "b"; "c"; "d" ] idents

let lexer_positions () =
  let toks = Lexer.tokenize "a\n  b" in
  match toks with
  | (Lexer.IDENT "a", p1) :: (Lexer.IDENT "b", p2) :: _ ->
      check Alcotest.int "line 1" 1 p1.Ast.line;
      check Alcotest.int "line 2" 2 p2.Ast.line;
      check Alcotest.int "col 3" 3 p2.Ast.col
  | _ -> Alcotest.fail "unexpected tokens"

let lexer_errors () =
  (try
     ignore (Lexer.tokenize "a $ b");
     Alcotest.fail "expected lexer error"
   with Lexer.Error (_, _) -> ());
  try
    ignore (Lexer.tokenize "a /* unterminated");
    Alcotest.fail "expected lexer error"
  with Lexer.Error (msg, _) ->
    check Alcotest.bool "message mentions comment" true
      (String.length msg > 0)

(* --- parser ------------------------------------------------------------------ *)

let parser_fig1 () =
  let spec = Parser.parse_spec fig1 in
  check Alcotest.string "sig name" "S" spec.Ast.sig_name;
  check Alcotest.int "fields" 1 (List.length spec.Ast.fields);
  check Alcotest.int "preds" 4 (List.length spec.Ast.preds);
  check Alcotest.int "commands" 1 (List.length spec.Ast.commands);
  let cmd = List.hd spec.Ast.commands in
  check Alcotest.(option string) "label" (Some "E4") cmd.Ast.cmd_label;
  check Alcotest.int "scope" 4 cmd.Ast.cmd_scope;
  check Alcotest.bool "exact" true cmd.Ast.cmd_exact

let parser_precedence () =
  (* '.' binds tighter than '->', '&' tighter than '+' *)
  (match Parser.parse_fmla "some a + b & c" with
  | Ast.Mult (Ast.Some_, Ast.Union (Ast.Rel "a", Ast.Inter (Ast.Rel "b", Ast.Rel "c"))) -> ()
  | f -> Alcotest.failf "unexpected parse: %s" (Format.asprintf "%a" Ast.pp_fmla f));
  match Parser.parse_fmla "some ~a.b" with
  | Ast.Mult (Ast.Some_, Ast.Join (Ast.Transpose (Ast.Rel "a"), Ast.Rel "b")) -> ()
  | f -> Alcotest.failf "unexpected parse: %s" (Format.asprintf "%a" Ast.pp_fmla f)

let parser_quant_vs_mult () =
  (match Parser.parse_fmla "some s, t: S | s->t in r" with
  | Ast.Quant (Ast.Exists, [ "s"; "t" ], _) -> ()
  | _ -> Alcotest.fail "expected quantifier");
  match Parser.parse_fmla "some r" with
  | Ast.Mult (Ast.Some_, Ast.Rel "r") -> ()
  | _ -> Alcotest.fail "expected multiplicity"

let parser_implies_else () =
  match Parser.parse_fmla "some a implies some b else some c" with
  | Ast.Or (Ast.And (_, _), Ast.And (Ast.Not _, _)) -> ()
  | f -> Alcotest.failf "unexpected parse: %s" (Format.asprintf "%a" Ast.pp_fmla f)

let parser_not_in () =
  match Parser.parse_fmla "a !in b" with
  | Ast.Not (Ast.In (Ast.Rel "a", Ast.Rel "b")) -> ()
  | _ -> Alcotest.fail "expected !in"

let parser_errors () =
  let expect_error src =
    try
      ignore (Parser.parse_spec src);
      Alcotest.failf "expected a parse error for %S" src
    with Parser.Error (_, _) -> ()
  in
  expect_error "pred P() { some r }" (* no sig *);
  expect_error "sig S { r: set S } fact { some r }" (* facts unsupported *);
  expect_error "sig S { r: set S } sig T { q: set T }" (* one sig only *);
  expect_error "sig S { r: set T }" (* field into foreign sig *);
  expect_error "sig S { r: set S } pred P() { some r " (* unclosed *)

let parser_multiline_body_conjoined () =
  let spec =
    Parser.parse_spec
      "sig S { r: set S } pred P() { all s: S | s->s in r  no r & iden }"
  in
  match (List.hd spec.Ast.preds).Ast.body with
  | Ast.And (_, _) -> ()
  | _ -> Alcotest.fail "expected implicit conjunction of body formulas"

(* --- checker ------------------------------------------------------------------- *)

let check_errors () =
  let expect_check_error src =
    let spec = Parser.parse_spec src in
    try
      Check.check_spec spec;
      Alcotest.failf "expected a check error for %S" src
    with Check.Error _ -> ()
  in
  expect_check_error "sig S { r: set S } pred P() { some q }" (* unknown name *);
  expect_check_error "sig S { r: set S } pred P() { r in univ }" (* arity mismatch *);
  expect_check_error "sig S { r: set S } pred P() { some ^univ }" (* closure arity *);
  expect_check_error "sig S { r: set S } pred P() { P }" (* recursion *);
  expect_check_error "sig S { r: set S } pred P() { Q }" (* unknown pred *);
  expect_check_error "sig S { r: set S } pred P() { all r: S | some r }" (* shadowing *);
  expect_check_error "sig S { r: set S } pred P() { some r } run P for 4 S"
  (* non-exact scope *)

let check_arity () =
  let spec = Parser.parse_spec "sig S { r: set S }" in
  let bound = fun _ -> false in
  check Alcotest.int "field" 2 (Check.arity_of spec ~bound (Ast.Rel "r"));
  check Alcotest.int "join" 1
    (Check.arity_of spec ~bound (Ast.Join (Ast.Rel "r", Ast.Univ)));
  check Alcotest.int "product" 4
    (Check.arity_of spec ~bound (Ast.Product (Ast.Rel "r", Ast.Rel "r")))

(* --- semantics: evaluator vs hand-rolled reference ----------------------------- *)

let spec_all = Mcml_props.Props.spec ()

let instance_gen scope =
  QCheck2.Gen.map
    (fun seed -> Instance.random (Splitmix.create seed) spec_all ~scope)
    QCheck2.Gen.int

(* Floyd–Warshall transitive closure as an independent reference for ^r *)
let closure_matrix inst =
  let n = inst.Instance.scope in
  let m = Array.make_matrix n n false in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      m.(i).(j) <- Instance.get inst ~field:"r" i j
    done
  done;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if m.(i).(k) && m.(k).(j) then m.(i).(j) <- true
      done
    done
  done;
  m

module BSem = Semantics.Make (Semantics.Bools)

let bsem_env inst =
  {
    BSem.scope = inst.Instance.scope;
    field = (fun name i j -> Instance.get inst ~field:name i j);
    spec = spec_all;
  }

let closure_agrees_with_floyd_warshall =
  qtest ~count:150 "^r = Floyd-Warshall closure" (instance_gen 5) (fun inst ->
      let reference = closure_matrix inst in
      let d = BSem.expr (bsem_env inst) ~bound:(fun _ -> None) (Ast.Closure (Ast.Rel "r")) in
      let denoted = Array.make_matrix 5 5 false in
      List.iter
        (fun (t, v) ->
          match t with [ i; j ] -> if v then denoted.(i).(j) <- true | _ -> ())
        d.BSem.tuples;
      reference = denoted)

let transpose_involution =
  qtest ~count:100 "~~r = r" (instance_gen 4) (fun inst ->
      let env = bsem_env inst in
      let d1 = BSem.expr env ~bound:(fun _ -> None) (Ast.Rel "r") in
      let d2 =
        BSem.expr env ~bound:(fun _ -> None) (Ast.Transpose (Ast.Transpose (Ast.Rel "r")))
      in
      d1.BSem.tuples = d2.BSem.tuples)

let set_algebra_laws =
  qtest ~count:100 "r & r = r, r - r = none, r + r = r" (instance_gen 4) (fun inst ->
      let env = bsem_env inst in
      let eval f = BSem.fmla env ~bound:(fun _ -> None) f in
      eval (Ast.Eq (Ast.Inter (Ast.Rel "r", Ast.Rel "r"), Ast.Rel "r"))
      && eval (Ast.Mult (Ast.No, Ast.Diff (Ast.Rel "r", Ast.Rel "r")))
      && eval (Ast.Eq (Ast.Union (Ast.Rel "r", Ast.Rel "r"), Ast.Rel "r")))

let rclosure_contains_iden =
  qtest ~count:100 "iden in *r" (instance_gen 4) (fun inst ->
      BSem.fmla (bsem_env inst) ~bound:(fun _ -> None)
        (Ast.In (Ast.Iden, Ast.RClosure (Ast.Rel "r"))))

(* --- translator vs evaluator --------------------------------------------------- *)

let translator_agrees_with_evaluator =
  let preds =
    [ "Equivalence"; "PartialOrder"; "Function"; "Connex"; "TotalOrder"; "Bijective" ]
  in
  qtest ~count:120 "translated formula = evaluator on random instances"
    QCheck2.Gen.(pair (int_bound 1000) (int_range 0 (List.length preds - 1)))
    (fun (seed, pi) ->
      let pred = List.nth preds pi in
      let scope = 4 in
      let analyzer = Analyzer.make spec_all ~scope in
      let inst = Instance.random (Splitmix.create seed) spec_all ~scope in
      let direct = Analyzer.evaluate analyzer ~pred inst in
      let f = Analyzer.formula analyzer ~pred in
      let bits = Instance.to_bits inst in
      let via_formula = Formula.eval (fun v -> bits.(v - 1)) f in
      direct = via_formula)

(* --- instance -------------------------------------------------------------------- *)

let instance_roundtrip =
  qtest ~count:100 "to_bits / of_bits roundtrip" (instance_gen 4) (fun inst ->
      Instance.equal inst (Instance.of_bits spec_all ~scope:4 (Instance.to_bits inst)))

let instance_set_get () =
  let inst = Instance.create spec_all ~scope:3 in
  check Alcotest.bool "initially false" false (Instance.get inst ~field:"r" 1 2);
  let inst' = Instance.set inst ~field:"r" 1 2 true in
  check Alcotest.bool "set" true (Instance.get inst' ~field:"r" 1 2);
  check Alcotest.bool "functional update" false (Instance.get inst ~field:"r" 1 2)

let instance_bad_bits () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Instance.of_bits: expected 9 bits, got 4") (fun () ->
      ignore (Instance.of_bits spec_all ~scope:3 (Array.make 4 false)))

(* --- symmetry --------------------------------------------------------------------- *)

let lex_leader_matches_formula =
  qtest ~count:200 "is_lex_leader = breaking_formula evaluation" (instance_gen 4)
    (fun inst ->
      let analyzer = Analyzer.make spec_all ~scope:4 in
      let f =
        Symmetry.breaking_formula
          ~var_of:(fun ~field i j -> Analyzer.var_of analyzer ~field i j)
          spec_all ~scope:4
      in
      let bits = Instance.to_bits inst in
      Formula.eval (fun v -> bits.(v - 1)) f = Symmetry.is_lex_leader inst)

let canonicalize_idempotent =
  qtest ~count:100 "canonicalize is idempotent and minimal" (instance_gen 4) (fun inst ->
      let c = Symmetry.canonicalize inst in
      Instance.equal (Symmetry.canonicalize c) c
      && Symmetry.is_lex_leader c)

let orbit_has_survivor () =
  (* soundness: for every positive instance of Equivalence at scope 4,
     its orbit contains at least one instance kept by the partial
     lex-leader predicate *)
  let analyzer = Analyzer.make spec_all ~scope:4 in
  let all_pos, complete = Analyzer.enumerate analyzer ~pred:"Equivalence" in
  check Alcotest.bool "enumeration complete" true complete;
  let survivors, _ = Analyzer.enumerate ~symmetry:true analyzer ~pred:"Equivalence" in
  let canon_of inst = Instance.to_bits (Symmetry.canonicalize inst) in
  let orbits = List.sort_uniq compare (List.map canon_of all_pos) in
  let surviving_orbits = List.sort_uniq compare (List.map canon_of survivors) in
  check Alcotest.int "every orbit keeps a representative" (List.length orbits)
    (List.length surviving_orbits)

(* --- analyzer ---------------------------------------------------------------------- *)

let analyzer_counts_vs_closed_forms () =
  (* a couple of independent spot checks at scope 4 *)
  let analyzer = Analyzer.make spec_all ~scope:4 in
  let count pred =
    let insts, complete = Analyzer.enumerate analyzer ~pred in
    check Alcotest.bool (pred ^ " complete") true complete;
    List.length insts
  in
  check Alcotest.int "Function 4^4" 256 (count "Function");
  check Alcotest.int "Equivalence Bell(4)" 15 (count "Equivalence");
  check Alcotest.int "TotalOrder 4!" 24 (count "TotalOrder")

let analyzer_cnf_projection () =
  let analyzer = Analyzer.make spec_all ~scope:3 in
  let cnf = Analyzer.cnf analyzer ~pred:"Reflexive" in
  check Alcotest.(array int) "projection = primaries" (Array.init 9 (fun i -> i + 1))
    (Cnf.projection_vars cnf);
  check Alcotest.int "nprimary" 9 (Analyzer.nprimary analyzer);
  check Alcotest.string "state space" "512" (Bignat.to_string (Analyzer.state_space analyzer))

(* The evidence behind counting ¬ϕ∧S as #S − #(ϕ∧S): on every
   property, at scopes 3 and 4, with and without symmetry breaking,
   the ¬ϕ∧S CNF counted on its own equals Analyzer.count's negated
   answer, and ϕ∧S and ¬ϕ∧S partition S.  Brute force, which shares no
   code with the compiled counter, agrees at scope 3. *)
let analyzer_negate () =
  let module Counter = Mcml_counting.Counter in
  let exact = Mcml_counting.Exact.count in
  let show = Bignat.to_string in
  List.iter
    (fun (scope, symmetry) ->
      let analyzer = Analyzer.make spec_all ~scope in
      let space = exact (Analyzer.space_cnf ~symmetry analyzer) in
      List.iter
        (fun (p : Mcml_props.Props.t) ->
          let name = Printf.sprintf "%s scope %d sym %b" p.Mcml_props.Props.name scope symmetry in
          let cnf negate = Analyzer.cnf ~negate ~symmetry analyzer ~pred:p.Mcml_props.Props.pred in
          let pos = exact (cnf false) and neg = exact (cnf true) in
          let counted backend =
            match Analyzer.count ~negate:true ~symmetry ~backend analyzer ~pred:p.Mcml_props.Props.pred with
            | Some o -> show o.Counter.count
            | None -> Alcotest.failf "%s: timed out" name
          in
          check Alcotest.string (name ^ ": #(¬ϕ∧S) counted = subtracted") (show neg)
            (counted Counter.Exact);
          check Alcotest.string (name ^ ": #(ϕ∧S) + #(¬ϕ∧S) = #S") (show space)
            (show (Bignat.add pos neg));
          if scope = 3 then
            check Alcotest.string (name ^ ": brute") (show neg) (counted Counter.Brute))
        Mcml_props.Props.all)
    [ (3, false); (3, true); (4, false); (4, true) ]

let analyzer_scope_mismatch () =
  let analyzer = Analyzer.make spec_all ~scope:3 in
  let inst = Instance.create spec_all ~scope:4 in
  Alcotest.check_raises "scope mismatch"
    (Invalid_argument "Analyzer.evaluate: instance scope mismatch") (fun () ->
      ignore (Analyzer.evaluate analyzer ~pred:"Reflexive" inst))

let pp_reparse_roundtrip () =
  (* printing the shared 16-property spec and re-parsing it must yield a
     spec with identical bounded semantics *)
  let original = Mcml_props.Props.spec () in
  let printed = Format.asprintf "%a" Ast.pp_spec original in
  let reparsed = Parser.parse_spec printed in
  Check.check_spec reparsed;
  let a1 = Analyzer.make original ~scope:3 in
  let a2 = Analyzer.make reparsed ~scope:3 in
  List.iter
    (fun pred ->
      let n1, _ = Analyzer.enumerate a1 ~pred in
      let n2, _ = Analyzer.enumerate a2 ~pred in
      check Alcotest.int ("reparse preserves " ^ pred) (List.length n1) (List.length n2))
    [ "Equivalence"; "PartialOrder"; "Function"; "Connex" ]

let () =
  Alcotest.run "alloy"
    [
      ( "lexer",
        [
          Alcotest.test_case "tokens" `Quick lexer_tokens;
          Alcotest.test_case "comments" `Quick lexer_comments;
          Alcotest.test_case "positions" `Quick lexer_positions;
          Alcotest.test_case "errors" `Quick lexer_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "figure 1" `Quick parser_fig1;
          Alcotest.test_case "precedence" `Quick parser_precedence;
          Alcotest.test_case "quantifier vs multiplicity" `Quick parser_quant_vs_mult;
          Alcotest.test_case "implies-else" `Quick parser_implies_else;
          Alcotest.test_case "!in" `Quick parser_not_in;
          Alcotest.test_case "errors" `Quick parser_errors;
          Alcotest.test_case "implicit conjunction" `Quick parser_multiline_body_conjoined;
        ] );
      ( "check",
        [
          Alcotest.test_case "rejections" `Quick check_errors;
          Alcotest.test_case "arities" `Quick check_arity;
        ] );
      ( "semantics",
        [
          closure_agrees_with_floyd_warshall;
          transpose_involution;
          set_algebra_laws;
          rclosure_contains_iden;
          translator_agrees_with_evaluator;
        ] );
      ( "instance",
        [
          instance_roundtrip;
          Alcotest.test_case "set/get" `Quick instance_set_get;
          Alcotest.test_case "bad bits" `Quick instance_bad_bits;
        ] );
      ( "symmetry",
        [
          lex_leader_matches_formula;
          canonicalize_idempotent;
          Alcotest.test_case "orbit soundness" `Slow orbit_has_survivor;
        ] );
      ( "analyzer",
        [
          Alcotest.test_case "print/reparse roundtrip" `Quick pp_reparse_roundtrip;
          Alcotest.test_case "counts vs closed forms" `Quick analyzer_counts_vs_closed_forms;
          Alcotest.test_case "cnf projection" `Quick analyzer_cnf_projection;
          Alcotest.test_case "negation partitions the space" `Quick analyzer_negate;
          Alcotest.test_case "scope mismatch" `Quick analyzer_scope_mismatch;
        ] );
    ]
