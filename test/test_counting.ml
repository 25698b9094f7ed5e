(* Tests for the model counters: brute-force reference, exact projected
   counting, and the XOR-hashing approximate counter. *)

open Mcml_logic
open Mcml_counting

let check = Alcotest.check
let qtest ?(count = 200) name gen prop = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let cnf_gen ~min_vars ~max_vars ~max_clauses =
  let open QCheck2.Gen in
  let* nvars = int_range min_vars max_vars in
  let* nclauses = int_range 0 max_clauses in
  let* raw =
    list_size (return nclauses)
      (list_size (int_range 1 3) (pair (int_range 1 nvars) bool))
  in
  let* proj_mask = int_range 1 ((1 lsl nvars) - 1) in
  let clauses =
    List.map (fun lits -> Array.of_list (List.map (fun (v, s) -> Lit.make v s) lits)) raw
  in
  let projection =
    List.init nvars (fun i -> i + 1)
    |> List.filter (fun v -> proj_mask land (1 lsl (v - 1)) <> 0)
    |> Array.of_list
  in
  return (Cnf.make ~projection ~nvars clauses)

let projected_cnf_gen = cnf_gen ~min_vars:2 ~max_vars:12 ~max_clauses:35

(* --- brute ------------------------------------------------------------------- *)

(* The other counters are checked against [Brute], so its edge cases are
   pinned by hand: every projected assignment is decided by one reused
   solver under assumptions. *)

let brute_str cnf = Bignat.to_string (Brute.count cnf)

let brute_basics () =
  check Alcotest.string "no clauses" "4" (brute_str (Cnf.make ~nvars:2 []));
  check Alcotest.string "empty clause" "0" (brute_str (Cnf.make ~nvars:2 [ [||] ]));
  check Alcotest.string "unit chain" "1"
    (brute_str (Cnf.make ~nvars:2 [ [| Lit.pos 1 |]; [| Lit.neg_of_var 1; Lit.pos 2 |] ]));
  check Alcotest.string "contradiction" "0"
    (brute_str (Cnf.make ~nvars:2 [ [| Lit.pos 1 |]; [| Lit.neg_of_var 1 |] ]));
  check Alcotest.string "empty projection, sat" "1"
    (brute_str (Cnf.make ~projection:[||] ~nvars:2 [ [| Lit.pos 1 |] ]));
  check Alcotest.string "empty projection, unsat" "0"
    (brute_str (Cnf.make ~projection:[||] ~nvars:1 [ [| Lit.pos 1 |]; [| Lit.neg_of_var 1 |] ]));
  Alcotest.check_raises "25 projection variables"
    (Invalid_argument "Brute.count: projection set too large") (fun () ->
      ignore (Brute.count (Cnf.make ~nvars:25 [])))

let brute_assignments_against_units () =
  (* (1 ∨ 2) ∧ ¬1: an assignment that contradicts the unit must not
     count, whichever side of the projection the unit falls on *)
  let cs = [ [| Lit.pos 1; Lit.pos 2 |]; [| Lit.neg_of_var 1 |] ] in
  check Alcotest.string "project {1}" "1" (brute_str (Cnf.make ~projection:[| 1 |] ~nvars:2 cs));
  check Alcotest.string "project {2}" "1" (brute_str (Cnf.make ~projection:[| 2 |] ~nvars:2 cs));
  check Alcotest.string "project {1,2}" "1" (brute_str (Cnf.make ~nvars:2 cs));
  check Alcotest.string "free variable 3" "2"
    (brute_str (Cnf.make ~projection:[| 1; 3 |] ~nvars:3 cs))

let brute_forced_variables () =
  (* 1 ∧ (¬1 ∨ 2) ∧ (¬2 ∨ 3 ∨ 4): propagation forces 1 and 2.  Projected
     onto {1,2} the first three assignments are refuted and only the last
     extends, so a refutation under assumptions must leave the shared
     solver usable for the next assignment. *)
  let cs =
    [ [| Lit.pos 1 |]; [| Lit.neg_of_var 1; Lit.pos 2 |]; [| Lit.neg_of_var 2; Lit.pos 3; Lit.pos 4 |] ]
  in
  check Alcotest.string "forced {1,2}" "1" (brute_str (Cnf.make ~projection:[| 1; 2 |] ~nvars:4 cs));
  check Alcotest.string "free {3,4}" "3" (brute_str (Cnf.make ~projection:[| 3; 4 |] ~nvars:4 cs));
  check Alcotest.string "all variables" "3" (brute_str (Cnf.make ~nvars:4 cs))

(* --- exact ------------------------------------------------------------------- *)

let exact_matches_brute =
  qtest ~count:400 "exact projected count = brute force" projected_cnf_gen (fun cnf ->
      Bignat.equal (Exact.count cnf) (Brute.count cnf))

let exact_free_space () =
  let cnf = Cnf.make ~nvars:40 [] in
  check Alcotest.string "2^40" (Bignat.to_string (Bignat.pow2 40))
    (Bignat.to_string (Exact.count cnf));
  let cnf = Cnf.make ~projection:[| 1; 2; 3 |] ~nvars:40 [] in
  check Alcotest.string "projected free space" "8" (Bignat.to_string (Exact.count cnf))

let exact_unsat () =
  let cnf = Cnf.make ~nvars:3 [ [| Lit.pos 1 |]; [| Lit.neg_of_var 1 |] ] in
  check Alcotest.string "unsat = 0" "0" (Bignat.to_string (Exact.count cnf));
  let cnf = Cnf.make ~nvars:3 [ [||] ] in
  check Alcotest.string "empty clause = 0" "0" (Bignat.to_string (Exact.count cnf))

let exact_components () =
  (* two independent constraints multiply: (x1) and (x3 | x4) over 4 vars:
     1 * 3 * 2^1 free (x2) = 6 *)
  let cnf = Cnf.make ~nvars:4 [ [| Lit.pos 1 |]; [| Lit.pos 3; Lit.pos 4 |] ] in
  check Alcotest.string "component product" "6" (Bignat.to_string (Exact.count cnf))

let exact_aux_determined () =
  (* aux var 3 defined as x1 & x2 via iff clauses; projecting on 1,2
     counts 4; unprojected counts 4 as well (aux determined) *)
  let clauses =
    [
      [| Lit.neg_of_var 3; Lit.pos 1 |];
      [| Lit.neg_of_var 3; Lit.pos 2 |];
      [| Lit.pos 3; Lit.neg_of_var 1; Lit.neg_of_var 2 |];
    ]
  in
  let proj = Cnf.make ~projection:[| 1; 2 |] ~nvars:3 clauses in
  check Alcotest.string "projected" "4" (Bignat.to_string (Exact.count proj));
  let full = Cnf.make ~nvars:3 clauses in
  check Alcotest.string "full" "4" (Bignat.to_string (Exact.count full))

let exact_timeout () =
  (* the negated PreOrder formula under symmetry breaking at scope 5 is
     a known multi-second instance; a 50 ms budget must time out *)
  let analyzer = Mcml_props.Props.analyzer ~scope:5 in
  let cnf =
    Mcml_alloy.Analyzer.cnf ~negate:true ~symmetry:true analyzer ~pred:"PreOrder"
  in
  check Alcotest.bool "times out" true (Exact.count_opt ~budget:0.05 cnf = None)

(* --- decision-DNNF engine ------------------------------------------------------ *)

(* All 16 properties at a brute-checkable scope: the compiled engine —
   with and without its component cache, with and without inprocessing
   — must agree bit-for-bit with exhaustive enumeration, in both the
   plain and the negated+symmetry-broken configurations. *)
let ddnnf_all_properties () =
  let analyzer = Mcml_props.Props.analyzer ~scope:3 in
  List.iter
    (fun p ->
      let pred = p.Mcml_props.Props.pred in
      List.iter
        (fun (negate, symmetry) ->
          let cnf = Mcml_alloy.Analyzer.cnf ~negate ~symmetry analyzer ~pred in
          let reference = Bignat.to_string (Brute.count cnf) in
          let label mode = Printf.sprintf "%s negate=%b sym=%b %s" pred negate symmetry mode in
          check Alcotest.string (label "default") reference
            (Bignat.to_string (Exact.count cnf));
          check Alcotest.string (label "cache off") reference
            (Bignat.to_string (Exact.count ~cache:false cnf));
          check Alcotest.string (label "inprocess off") reference
            (Bignat.to_string (Exact.count ~inprocess:false cnf)))
        [ (false, false); (true, true) ])
    Mcml_props.Props.all

let ddnnf_cache_invariance =
  qtest ~count:200 "component cache does not change counts" projected_cnf_gen (fun cnf ->
      Bignat.equal (Exact.count ~cache:false cnf) (Exact.count cnf))

let ddnnf_inprocess_invariance =
  qtest ~count:200 "inprocessing does not change counts" projected_cnf_gen (fun cnf ->
      Bignat.equal (Exact.count ~inprocess:false cnf) (Exact.count cnf))

let ddnnf_trace_evaluates =
  qtest ~count:200 "trace evaluation = streamed count" projected_cnf_gen (fun cnf ->
      let t = Exact.Dnnf.compile cnf in
      Bignat.equal (Exact.Dnnf.condition t [ [||] ]) (Exact.count cnf))

(* [cnf] with [term]'s literals added as unit clauses: the reference
   for conditioning. *)
let with_units (cnf : Cnf.t) term =
  Cnf.make ?projection:cnf.Cnf.projection ~nvars:cnf.Cnf.nvars
    (Array.to_list cnf.Cnf.clauses @ List.map (fun l -> [| l |]) (Array.to_list term))

(* up to 6 literals over the projection: with few projection variables
   repeated and opposite literals come up often *)
let term_gen proj =
  let open QCheck2.Gen in
  let+ lits = list_size (int_range 0 6) (pair (int_range 0 (Array.length proj - 1)) bool) in
  Array.of_list (List.map (fun (i, b) -> Lit.make proj.(i) b) lits)

let conditioned_gen =
  let open QCheck2.Gen in
  let* cnf = projected_cnf_gen in
  let+ term = term_gen (Cnf.projection_vars cnf) in
  (cnf, term)

(* The labelled paths of a random complete decision tree over [proj], up
   to 4 deep.  A path may test a variable again, either way: a path with
   opposite literals has no models, and the leaves still partition the
   space. *)
let tree_paths_gen proj =
  let open QCheck2.Gen in
  let leaf = map (fun b -> [ ([], b) ]) bool in
  let rec tree depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (1, leaf);
          ( 3,
            let* v = map (fun i -> proj.(i)) (int_range 0 (Array.length proj - 1)) in
            let* hi = tree (depth - 1) in
            let+ lo = tree (depth - 1) in
            let under l = List.map (fun (path, b) -> (l :: path, b)) in
            under (Lit.pos v) hi @ under (Lit.neg_of_var v) lo );
        ]
  in
  tree 4

let side paths label =
  List.filter_map (fun (path, b) -> if b = label then Some (Array.of_list path) else None) paths

let ddnnf_condition_matches_units =
  qtest ~count:400 "condition (compile c) term = count (c + term units)" conditioned_gen
    (fun (cnf, term) ->
      Bignat.equal
        (Exact.Dnnf.condition (Exact.Dnnf.compile cnf) [ term ])
        (Exact.count (with_units cnf term)))

(* What AccMC's one-side derivation rests on: a tree's two sides
   partition the space, so their conditioned counts sum to the total the
   compile kept, which is the projected count. *)
let ddnnf_condition_sides_partition =
  qtest ~count:300 "condition t true_paths + condition t false_paths = total t = count"
    QCheck2.Gen.(
      let* cnf = projected_cnf_gen in
      let+ paths = tree_paths_gen (Cnf.projection_vars cnf) in
      (cnf, paths))
    (fun (cnf, paths) ->
      let t = Exact.Dnnf.compile cnf in
      let total = Exact.Dnnf.total t in
      let on label = Exact.Dnnf.condition t (side paths label) in
      Bignat.equal (Bignat.add (on true) (on false)) total
      && Bignat.equal total (Exact.count cnf))

let ddnnf_condition_list_is_sum =
  qtest ~count:300 "condition t terms = sum of single-term calls"
    QCheck2.Gen.(
      let* cnf = projected_cnf_gen in
      let+ terms = list_size (int_range 0 5) (term_gen (Cnf.projection_vars cnf)) in
      (cnf, terms))
    (fun (cnf, terms) ->
      let t = Exact.Dnnf.compile cnf in
      let one acc term = Bignat.add acc (Exact.Dnnf.condition t [ term ]) in
      Bignat.equal (Exact.Dnnf.condition t terms) (List.fold_left one Bignat.zero terms))

let ddnnf_condition_concurrent () =
  (* one form conditioned from four domains at once answers as it does
     alone: each domain conditions with its own scratch *)
  let analyzer = Mcml_props.Props.analyzer ~scope:4 in
  let t = Exact.Dnnf.compile (Mcml_alloy.Analyzer.cnf ~symmetry:true analyzer ~pred:"PartialOrder") in
  let terms =
    List.init 256 (fun i -> Array.init 3 (fun k -> Lit.make (1 + ((i + (5 * k)) mod 16)) ((i lsr k) land 1 = 0)))
  in
  let answers () = List.map (fun term -> Bignat.to_string (Exact.Dnnf.condition t [ term ])) terms in
  let alone = answers () in
  List.iter
    (fun got -> check Alcotest.(list string) "concurrent = alone" alone got)
    (List.map Domain.join (List.init 4 (fun _ -> Domain.spawn answers)))

let ddnnf_condition_all_properties () =
  (* every property at scope 3, plain and symmetry-broken, conditioned
     on a fixed spread of terms: empty, single literals, a row, and a
     contradictory pair *)
  let analyzer = Mcml_props.Props.analyzer ~scope:3 in
  let terms =
    [
      [||];
      [| Lit.pos 1 |];
      [| Lit.neg_of_var 5 |];
      [| Lit.pos 1; Lit.neg_of_var 2; Lit.pos 3 |];
      [| Lit.pos 2; Lit.pos 4; Lit.neg_of_var 9; Lit.pos 2 |];
      [| Lit.pos 6; Lit.neg_of_var 6 |];
    ]
  in
  List.iter
    (fun p ->
      let pred = p.Mcml_props.Props.pred in
      List.iter
        (fun symmetry ->
          let cnf = Mcml_alloy.Analyzer.cnf ~symmetry analyzer ~pred in
          let dnnf = Exact.Dnnf.compile cnf in
          List.iteri
            (fun i term ->
              check Alcotest.string
                (Printf.sprintf "%s sym=%b term %d" pred symmetry i)
                (Bignat.to_string (Exact.count (with_units cnf term)))
                (Bignat.to_string (Exact.Dnnf.condition dnnf [ term ])))
            terms)
        [ false; true ])
    Mcml_props.Props.all

let ddnnf_trace_shape () =
  (* (x1) ∧ (x3 ∨ x4) over 4 vars: x1 is forced (factor 1), x2 is free
     (×2), the disjunction contributes 3 — the worked example of
     DESIGN.md §11.  The root must be a Free node crediting exactly one
     variable over the rest of the trace. *)
  let t =
    Exact.Dnnf.compile (Cnf.make ~nvars:4 [ [| Lit.pos 1 |]; [| Lit.pos 3; Lit.pos 4 |] ])
  in
  check Alcotest.string "worked example count" "6"
    (Bignat.to_string (Exact.Dnnf.condition t [ [||] ]));
  (match Exact.Dnnf.node t (Exact.Dnnf.root t) with
  | Exact.Dnnf.Free { vars; child } -> (
      check Alcotest.(array int) "x2 freed at the root" [| 2 |] vars;
      match Exact.Dnnf.node t child with
      | Exact.Dnnf.Decision { hi_fixed; lo_fixed; _ } ->
          (* one of x3 / x4 is decided; its lo branch forces the other *)
          check Alcotest.int "hi fixes the decision only" 1 (Array.length hi_fixed);
          check Alcotest.int "lo fixes the decision and the forced literal" 2
            (Array.length lo_fixed)
      | _ -> Alcotest.fail "expected a decision under the root")
  | _ -> Alcotest.fail "expected a Free root");
  (* x1, forced at the root, is set in every model *)
  let models = ref [] in
  Exact.Dnnf.iter_models t (fun m -> models := m :: !models);
  check
    Alcotest.(list (array bool))
    "models in DFS order: hi before lo, Free true first"
    [
      [| true; true; true; true |];
      [| true; false; true; true |];
      [| true; true; true; false |];
      [| true; false; true; false |];
      [| true; true; false; true |];
      [| true; false; false; true |];
    ]
    (List.rev !models);
  (* shared leaves at fixed positions *)
  check Alcotest.bool "leaf 0 is False" true (Exact.Dnnf.node t 0 = Exact.Dnnf.False);
  check Alcotest.bool "leaf 1 is True" true (Exact.Dnnf.node t 1 = Exact.Dnnf.True)

(* The projected models of [cnf] by its truth table, sorted: every
   assignment of all variables, kept by [Cnf.eval], restricted to the
   projection. *)
let truth_table_models (cnf : Cnf.t) =
  let n = cnf.Cnf.nvars in
  let proj = Cnf.projection_vars cnf in
  let seen = Hashtbl.create 64 in
  for mask = 0 to (1 lsl n) - 1 do
    let a = Array.init (n + 1) (fun v -> v > 0 && mask land (1 lsl (v - 1)) <> 0) in
    if Cnf.eval cnf a then Hashtbl.replace seen (Array.map (fun v -> a.(v)) proj) ()
  done;
  List.sort compare (List.of_seq (Hashtbl.to_seq_keys seen))

let trace_models ?inprocess ?limit cnf =
  let acc = ref [] in
  Exact.Dnnf.iter_models ?limit (Exact.Dnnf.compile ?inprocess cnf) (fun m -> acc := m :: !acc);
  List.rev !acc

let ddnnf_models_match_brute =
  qtest ~count:300 "trace enumeration = brute-force model set (inprocess on and off)"
    projected_cnf_gen (fun cnf ->
      let truth = truth_table_models cnf in
      let brute = Bignat.to_int_opt (Brute.count cnf) in
      List.for_all
        (fun inprocess ->
          let models = trace_models ~inprocess cnf in
          brute = Some (List.length models) && List.sort compare models = truth)
        [ true; false ])

let ddnnf_models_match_count =
  qtest ~count:200 "unlimited walk yields exactly model_count models; a limit cuts a prefix"
    QCheck2.Gen.(pair projected_cnf_gen (int_range 0 20))
    (fun (cnf, limit) ->
      let t = Exact.Dnnf.compile cnf in
      let n = ref 0 in
      Exact.Dnnf.iter_models t (fun _ -> incr n);
      let all = trace_models cnf in
      let cut = trace_models ~limit cnf in
      Bignat.equal (Bignat.of_int !n) (Exact.Dnnf.condition t [ [||] ])
      && List.length cut = min limit !n
      && List.filteri (fun i _ -> i < limit) all = cut)

let sample_models ~seed ~limit t =
  let acc = ref [] in
  Exact.Dnnf.sample_models ~rng:(Splitmix.create seed) ~limit t (fun m -> acc := m :: !acc);
  List.rev !acc

let ddnnf_sample_distinct_models =
  qtest ~count:200 "a sample is min(limit, count) distinct models, repeatable by seed"
    QCheck2.Gen.(triple projected_cnf_gen (int_range 0 20) int)
    (fun (cnf, limit, seed) ->
      let truth = truth_table_models cnf in
      let t = Exact.Dnnf.compile cnf in
      let s = sample_models ~seed ~limit t in
      List.length s = min limit (List.length truth)
      && List.length (List.sort_uniq compare s) = List.length s
      && List.for_all (fun m -> List.mem m truth) s
      && sample_models ~seed ~limit t = s)

let ddnnf_sample_uniform () =
  (* the worked example's decision splits its 6 models 4 : 2, so taking
     hi with a fair coin would favour the lo models 2 : 1; drawn in
     proportion to the counts, each model comes up ~1/6 of the time *)
  let t =
    Exact.Dnnf.compile (Cnf.make ~nvars:4 [ [| Lit.pos 1 |]; [| Lit.pos 3; Lit.pos 4 |] ])
  in
  let rng = Splitmix.create 7 in
  let hits = Hashtbl.create 8 in
  for _ = 1 to 6000 do
    Exact.Dnnf.sample_models ~rng ~limit:1 t (fun m ->
        Hashtbl.replace hits m (1 + Option.value (Hashtbl.find_opt hits m) ~default:0))
  done;
  check Alcotest.int "every model drawn" 6 (Hashtbl.length hits);
  Hashtbl.iter
    (fun _ k -> if k < 850 || k > 1150 then Alcotest.failf "model drawn %d / 6000 times" k)
    hits

let ddnnf_torn_budget () =
  (* a timed-out run leaves no residue: a torn run followed by full
     runs yields identical counts (each call allocates fresh state) *)
  let analyzer = Mcml_props.Props.analyzer ~scope:5 in
  let cnf =
    Mcml_alloy.Analyzer.cnf ~negate:true ~symmetry:true analyzer ~pred:"PreOrder"
  in
  let torn = Exact.count_opt ~budget:0.02 cnf in
  check Alcotest.bool "torn run times out" true (torn = None);
  let full = Exact.count cnf in
  let again = Exact.count cnf in
  check Alcotest.string "deterministic after a torn run" (Bignat.to_string full)
    (Bignat.to_string again)

(* --- approx ------------------------------------------------------------------- *)

let approx_exact_below_pivot =
  (* when the solution count is at most the pivot, the "estimate" is the
     exact enumeration *)
  qtest ~count:100 "approx is exact below the pivot" projected_cnf_gen (fun cnf ->
      let brute = Brute.count cnf in
      match Bignat.to_int_opt brute with
      | Some n when n <= 50 ->
          Bignat.equal (Approx.count ~config:Approx.default cnf) brute
      | _ -> true)

let approx_within_bounds () =
  (* free space of 2^22 with one clause: count = 3 * 2^20 = 3145728; the
     (0.8, seeded) estimate must land within the epsilon envelope *)
  let cnf = Cnf.make ~nvars:22 [ [| Lit.pos 1; Lit.pos 2 |] ] in
  let truth = 3.0 *. Float.pow 2.0 20.0 in
  let est =
    Bignat.to_float
      (Approx.count ~config:{ Approx.default with Approx.max_rounds = Some 9 } cnf)
  in
  let lo = truth /. 1.8 and hi = truth *. 1.8 in
  if est < lo || est > hi then
    Alcotest.failf "estimate %.0f outside [%.0f, %.0f]" est lo hi

let approx_deterministic () =
  let cnf = Cnf.make ~nvars:18 [ [| Lit.pos 1; Lit.pos 2 |] ] in
  let cfg = { Approx.default with Approx.seed = 42; max_rounds = Some 3 } in
  let a = Approx.count ~config:cfg cnf in
  let b = Approx.count ~config:cfg cnf in
  check Alcotest.string "same seed, same estimate" (Bignat.to_string a) (Bignat.to_string b)

let approx_unsat () =
  let cnf = Cnf.make ~nvars:5 [ [| Lit.pos 1 |]; [| Lit.neg_of_var 1 |] ] in
  check Alcotest.string "unsat = 0" "0" (Bignat.to_string (Approx.count cnf))

let approx_pivot_formula () =
  check Alcotest.int "pivot(0.8)" 50 (Approx.pivot Approx.default);
  check Alcotest.int "pivot(10)" 12 (Approx.pivot { Approx.default with Approx.epsilon = 10.0 })

(* Reference cells for [Approx.search]: |projected models of [cnf] ∧
   the first [m] pool XORs|, clamped at pivot + 1, counted from scratch
   by [counter] on the CNF with the XORs encoded by [Xor.clauses_of] —
   no solver reuse, no model replay, no native parity rows. *)
let reference_cells ~counter ~pivot (cnf : Cnf.t) pool m =
  let nvars = ref cnf.Cnf.nvars in
  let fresh () =
    incr nvars;
    !nvars
  in
  let xors =
    List.concat_map
      (fun (vars, rhs) -> Mcml_sat.Xor.clauses_of ~fresh ~vars ~rhs)
      (Array.to_list (Array.sub pool 0 m))
  in
  let hashed =
    Cnf.make ~projection:(Cnf.projection_vars cnf) ~nvars:!nvars
      (Array.to_list cnf.Cnf.clauses @ List.map Array.of_list xors)
  in
  match Bignat.to_int_opt (counter hashed) with
  | Some c when c <= pivot -> c
  | _ -> pivot + 1

let reference_estimate ~counter cfg cnf =
  Approx.search cfg ~proj:(Cnf.projection_vars cnf)
    ~cells:(reference_cells ~counter ~pivot:(Approx.pivot cfg) cnf)

let approx_matches_reference_cells () =
  (* an estimate depends on the seed and the cell sizes alone, so the
     incremental cells of [Approx.count] (one guarded solver per round,
     model replay, native parity rows) must reproduce the estimate of
     brute-force reference cells bit for bit.  Few clauses over many
     variables and pivot 12 (ε = 10) send most cases past the exactness
     probe into the XOR-hashing search; a fixed sample keeps that share
     asserted rather than hoped for. *)
  let cases =
    QCheck2.Gen.(
      generate ~rand:(Random.State.make [| 13 |]) ~n:200
        (pair (cnf_gen ~min_vars:6 ~max_vars:14 ~max_clauses:8) (int_range 0 1_000_000)))
  in
  let hashed = ref 0 in
  List.iter
    (fun (cnf, seed) ->
      let cfg = { Approx.default with Approx.epsilon = 10.0; seed; max_rounds = Some 3 } in
      let reference = reference_estimate ~counter:Brute.count cfg cnf in
      if Bignat.compare (Brute.count cnf) (Bignat.of_int (Approx.pivot cfg)) > 0 then
        incr hashed;
      check Alcotest.string
        (Printf.sprintf "seed %d on %s" seed (Dimacs.to_string cnf))
        (Bignat.to_string reference)
        (Bignat.to_string (Approx.count ~config:cfg cnf)))
    cases;
  if !hashed < 100 then Alcotest.failf "only %d of 200 cases exceed the pivot" !hashed

let approx_all_properties () =
  (* the same invariant on the real workload: every property of the
     study at a scope where the counts sit well above the pivot, with
     cells counted by the exact counter (brute force takes seconds per
     cell here) *)
  let analyzer = Mcml_props.Props.analyzer ~scope:4 in
  List.iter
    (fun p ->
      let pred = p.Mcml_props.Props.pred in
      let cnf = Mcml_alloy.Analyzer.cnf ~negate:false ~symmetry:false analyzer ~pred in
      let cfg = { Approx.default with Approx.seed = 7; max_rounds = Some 3 } in
      check Alcotest.string (p.Mcml_props.Props.name ^ " scope 4")
        (Bignat.to_string (reference_estimate ~counter:Exact.count cfg cnf))
        (Bignat.to_string (Approx.count ~config:cfg cnf)))
    Mcml_props.Props.all

let approx_inconclusive () =
  (* php(7,6) is far beyond a 1-conflict budget: the counter must refuse
     to report rather than undercount (Unknown used to pose as Unsat) *)
  let pigeons = 7 and holes = 6 in
  let var p h = (p * holes) + h + 1 in
  let clauses = ref [] in
  for p = 0 to pigeons - 1 do
    clauses := Array.of_list (List.init holes (fun h -> Lit.pos (var p h))) :: !clauses
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        clauses :=
          [| Lit.neg_of_var (var p1 h); Lit.neg_of_var (var p2 h) |] :: !clauses
      done
    done
  done;
  let cnf = Cnf.make ~nvars:(pigeons * holes) !clauses in
  Alcotest.check_raises "inconclusive surfaces" Approx.Inconclusive (fun () ->
      ignore
        (Approx.count
           ~config:{ Approx.default with Approx.max_conflicts = 1 }
           cnf))

(* --- metamorphic relations ---------------------------------------------------------- *)

let metamorphic_exact =
  qtest ~count:100 "exact counter satisfies all metamorphic relations" projected_cnf_gen
    (fun cnf -> Metamorphic.check_all (fun c -> Exact.count c) cnf)

let metamorphic_brute =
  qtest ~count:60 "brute counter satisfies all metamorphic relations" projected_cnf_gen
    (fun cnf ->
      if Array.length (Cnf.projection_vars cnf) <= 10 && cnf.Cnf.nvars <= 10 then
        Metamorphic.check_all ~rounds:2 (fun c -> Brute.count c) cnf
      else true)

let metamorphic_detects_broken_counter () =
  (* a counter that is off by one must violate Shannon expansion *)
  let broken c = Bignat.add (Exact.count c) Bignat.one in
  let cnf = Cnf.make ~nvars:4 [ [| Lit.pos 1; Lit.pos 2 |] ] in
  check Alcotest.bool "broken counter caught" false (Metamorphic.shannon broken cnf ~var:1)

let metamorphic_rejects_bad_args () =
  let cnf = Cnf.make ~projection:[| 1 |] ~nvars:3 [ [| Lit.pos 1 |] ] in
  Alcotest.check_raises "non-projected variable"
    (Invalid_argument "Metamorphic.shannon: variable not in the projection set")
    (fun () -> ignore (Metamorphic.shannon (fun c -> Exact.count c) cnf ~var:2));
  Alcotest.check_raises "bad permutation"
    (Invalid_argument "Metamorphic.renaming_invariant: not a permutation")
    (fun () ->
      ignore
        (Metamorphic.renaming_invariant (fun c -> Exact.count c) cnf ~perm:[| 0; 1; 1; 3 |]))

(* --- counter dispatch ------------------------------------------------------------ *)

let counter_dispatch () =
  let cnf = Cnf.make ~nvars:4 [ [| Lit.pos 1 |] ] in
  List.iter
    (fun backend ->
      match Counter.count (Counter.query ~backend cnf) with
      | Some o ->
          check Alcotest.string
            (Counter.name backend ^ " count")
            "8"
            (Bignat.to_string o.Counter.count);
          check Alcotest.bool "time recorded" true (o.Counter.time >= 0.0)
      | None -> Alcotest.fail "unexpected timeout")
    [ Counter.Exact; Counter.Brute; Counter.Approx Approx.default ]

let counter_exactness_flag () =
  let cnf = Cnf.make ~nvars:2 [] in
  let o = Option.get (Counter.count (Counter.query ~backend:Counter.Exact cnf)) in
  check Alcotest.bool "exact flag" true o.Counter.exact;
  let o =
    Option.get (Counter.count (Counter.query ~backend:(Counter.Approx Approx.default) cnf))
  in
  check Alcotest.bool "approx flag" false o.Counter.exact

let () =
  Alcotest.run "counting"
    [
      ( "brute",
        [
          Alcotest.test_case "basics" `Quick brute_basics;
          Alcotest.test_case "assignments against units" `Quick brute_assignments_against_units;
          Alcotest.test_case "forced variables" `Quick brute_forced_variables;
        ] );
      ( "exact",
        [
          exact_matches_brute;
          Alcotest.test_case "free space" `Quick exact_free_space;
          Alcotest.test_case "unsat" `Quick exact_unsat;
          Alcotest.test_case "component product" `Quick exact_components;
          Alcotest.test_case "determined auxiliaries" `Quick exact_aux_determined;
          Alcotest.test_case "timeout" `Quick exact_timeout;
        ] );
      ( "ddnnf",
        [
          Alcotest.test_case "all 16 properties = brute" `Slow ddnnf_all_properties;
          ddnnf_cache_invariance;
          ddnnf_inprocess_invariance;
          ddnnf_trace_evaluates;
          ddnnf_condition_matches_units;
          ddnnf_condition_sides_partition;
          ddnnf_condition_list_is_sum;
          Alcotest.test_case "concurrent conditioning" `Quick ddnnf_condition_concurrent;
          Alcotest.test_case "condition on all 16 properties" `Slow ddnnf_condition_all_properties;
          Alcotest.test_case "trace shape (worked example)" `Quick ddnnf_trace_shape;
          ddnnf_models_match_brute;
          ddnnf_models_match_count;
          ddnnf_sample_distinct_models;
          Alcotest.test_case "sample is uniform (worked example)" `Quick ddnnf_sample_uniform;
          Alcotest.test_case "torn-budget determinism" `Slow ddnnf_torn_budget;
        ] );
      ( "approx",
        [
          approx_exact_below_pivot;
          Alcotest.test_case "within (seeded) bounds" `Slow approx_within_bounds;
          Alcotest.test_case "deterministic by seed" `Quick approx_deterministic;
          Alcotest.test_case "unsat" `Quick approx_unsat;
          Alcotest.test_case "pivot formula" `Quick approx_pivot_formula;
          Alcotest.test_case "estimate = reference cells on random CNFs" `Quick
            approx_matches_reference_cells;
          Alcotest.test_case "estimate = reference cells on all 16 properties" `Slow
            approx_all_properties;
          Alcotest.test_case "inconclusive surfaces" `Quick approx_inconclusive;
        ] );
      ( "metamorphic",
        [
          metamorphic_exact;
          metamorphic_brute;
          Alcotest.test_case "detects a broken counter" `Quick metamorphic_detects_broken_counter;
          Alcotest.test_case "rejects bad arguments" `Quick metamorphic_rejects_bad_args;
        ] );
      ( "counter",
        [
          Alcotest.test_case "dispatch" `Quick counter_dispatch;
          Alcotest.test_case "exactness flags" `Quick counter_exactness_flag;
        ] );
    ]
