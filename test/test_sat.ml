(* Tests for the CDCL solver, the reference enumeration oracle, and XOR
   encoding. *)

open Mcml_logic
open Mcml_sat

let check = Alcotest.check
let qtest ?(count = 200) name gen prop = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* random CNF generator shared by several properties *)
let cnf_gen =
  let open QCheck2.Gen in
  let* nvars = int_range 2 10 in
  let* nclauses = int_range 1 30 in
  let* raw =
    list_size (return nclauses)
      (list_size (int_range 1 3) (pair (int_range 1 nvars) bool))
  in
  let clauses =
    List.map (fun lits -> Array.of_list (List.map (fun (v, s) -> Lit.make v s) lits)) raw
  in
  return (Cnf.make ~nvars clauses)

let brute_sat (cnf : Cnf.t) =
  let n = cnf.Cnf.nvars in
  let rec go mask = mask < 1 lsl n && (
    let a = Array.make (n + 1) false in
    for v = 1 to n do a.(v) <- mask land (1 lsl (v - 1)) <> 0 done;
    Cnf.eval cnf a || go (mask + 1))
  in
  go 0

let brute_count (cnf : Cnf.t) =
  let n = cnf.Cnf.nvars in
  let count = ref 0 in
  for mask = 0 to (1 lsl n) - 1 do
    let a = Array.make (n + 1) false in
    for v = 1 to n do
      a.(v) <- mask land (1 lsl (v - 1)) <> 0
    done;
    if Cnf.eval cnf a then incr count
  done;
  !count

(* --- Vec -------------------------------------------------------------------- *)

let vec_basic () =
  let v = Vec.create ~dummy:(-1) () in
  check Alcotest.bool "empty" true (Vec.is_empty v);
  for i = 0 to 99 do
    Vec.push v i
  done;
  check Alcotest.int "size" 100 (Vec.size v);
  check Alcotest.int "get" 57 (Vec.get v 57);
  check Alcotest.int "last" 99 (Vec.last v);
  check Alcotest.int "pop" 99 (Vec.pop v);
  Vec.shrink v 10;
  check Alcotest.int "shrunk" 10 (Vec.size v);
  check Alcotest.(list int) "to_list" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (Vec.to_list v);
  Vec.clear v;
  check Alcotest.int "cleared" 0 (Vec.size v)

let vec_errors () =
  let v = Vec.create ~dummy:0 () in
  Alcotest.check_raises "get out of bounds" (Invalid_argument "Vec.get") (fun () ->
      ignore (Vec.get v 0));
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop") (fun () ->
      ignore (Vec.pop v))

(* --- solver ------------------------------------------------------------------ *)

let solver_decides_like_brute_force =
  qtest ~count:300 "solve agrees with brute force" cnf_gen (fun cnf ->
      let s = Solver.of_cnf cnf in
      (Solver.solve s = Solver.Sat) = brute_sat cnf)

let solver_model_satisfies =
  qtest ~count:300 "reported model satisfies the formula" cnf_gen (fun cnf ->
      let s = Solver.of_cnf cnf in
      match Solver.solve s with
      | Solver.Sat ->
          let m = Solver.model s in
          Cnf.eval cnf m
      | _ -> true)

let solver_trivia () =
  let s = Solver.create ~nvars:2 () in
  check Alcotest.bool "empty problem sat" true (Solver.solve s = Solver.Sat);
  Solver.add_clause s [];
  check Alcotest.bool "empty clause unsat" true (Solver.solve s = Solver.Unsat);
  (* adding more clauses cannot revive it *)
  Solver.add_clause s [ Lit.pos 1 ];
  check Alcotest.bool "still unsat" true (Solver.solve s = Solver.Unsat)

let solver_units_and_taut () =
  let s = Solver.create ~nvars:3 () in
  Solver.add_clause s [ Lit.pos 1 ];
  Solver.add_clause s [ Lit.neg_of_var 1; Lit.pos 2 ];
  Solver.add_clause s [ Lit.pos 3; Lit.neg_of_var 3 ] (* tautology: ignored *);
  check Alcotest.bool "sat" true (Solver.solve s = Solver.Sat);
  check Alcotest.bool "v1 forced" true (Solver.model_value s 1);
  check Alcotest.bool "v2 forced" true (Solver.model_value s 2)

let solver_incremental () =
  let s = Solver.create ~nvars:2 () in
  Solver.add_clause s [ Lit.pos 1; Lit.pos 2 ];
  check Alcotest.bool "sat" true (Solver.solve s = Solver.Sat);
  Solver.add_clause s [ Lit.neg_of_var 1 ];
  check Alcotest.bool "still sat" true (Solver.solve s = Solver.Sat);
  check Alcotest.bool "v2 now true" true (Solver.model_value s 2);
  Solver.add_clause s [ Lit.neg_of_var 2 ];
  check Alcotest.bool "now unsat" true (Solver.solve s = Solver.Unsat)

let pigeonhole pigeons holes =
  let s = Solver.create () in
  let var = Array.init pigeons (fun _ -> Array.init holes (fun _ -> Solver.new_var s)) in
  for p = 0 to pigeons - 1 do
    Solver.add_clause s (List.init holes (fun h -> Lit.pos var.(p).(h)))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        Solver.add_clause s [ Lit.neg_of_var var.(p1).(h); Lit.neg_of_var var.(p2).(h) ]
      done
    done
  done;
  Solver.solve s

let solver_pigeonhole () =
  check Alcotest.bool "php(4,3) unsat" true (pigeonhole 4 3 = Solver.Unsat);
  check Alcotest.bool "php(6,5) unsat" true (pigeonhole 6 5 = Solver.Unsat);
  check Alcotest.bool "php(5,5) sat" true (pigeonhole 5 5 = Solver.Sat)

let solver_conflict_budget () =
  (* a hard pigeonhole instance with a 1-conflict budget returns Unknown *)
  let s = Solver.create () in
  let pigeons = 8 and holes = 7 in
  let var = Array.init pigeons (fun _ -> Array.init holes (fun _ -> Solver.new_var s)) in
  for p = 0 to pigeons - 1 do
    Solver.add_clause s (List.init holes (fun h -> Lit.pos var.(p).(h)))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        Solver.add_clause s [ Lit.neg_of_var var.(p1).(h); Lit.neg_of_var var.(p2).(h) ]
      done
    done
  done;
  check Alcotest.bool "unknown under budget" true
    (Solver.solve ~max_conflicts:1 s = Solver.Unknown);
  (* and solvable to completion afterwards *)
  check Alcotest.bool "unsat without budget" true (Solver.solve s = Solver.Unsat)

let solver_unknown_var () =
  let s = Solver.create ~nvars:1 () in
  Alcotest.check_raises "unknown variable"
    (Invalid_argument "Solver.add_clause: unknown variable") (fun () ->
      Solver.add_clause s [ Lit.pos 9 ])

let solver_stats () =
  (* a nontrivial unsat instance: no units, so the solver must decide,
     propagate and conflict before concluding *)
  let s = Solver.create ~nvars:2 () in
  Solver.add_clause s [ Lit.pos 1; Lit.pos 2 ];
  Solver.add_clause s [ Lit.pos 1; Lit.neg_of_var 2 ];
  Solver.add_clause s [ Lit.neg_of_var 1; Lit.pos 2 ];
  Solver.add_clause s [ Lit.neg_of_var 1; Lit.neg_of_var 2 ];
  check Alcotest.bool "unsat" true (Solver.solve s = Solver.Unsat);
  let st = Solver.stats s in
  check Alcotest.bool "decisions > 0" true (st.Solver.decisions > 0);
  check Alcotest.bool "propagations > 0" true (st.Solver.propagations > 0);
  check Alcotest.bool "conflicts > 0" true (st.Solver.conflicts > 0);
  check Alcotest.int "clauses tracked" 4 st.Solver.clauses;
  check Alcotest.int "legacy accessors agree" st.Solver.propagations
    (Solver.num_propagations s)

(* --- assumptions -------------------------------------------------------------- *)

let solver_assumptions_basic () =
  (* (1 ∨ 2) ∧ (¬1 ∨ 3) under each polarity of variable 1 *)
  let s = Solver.create ~nvars:3 () in
  Solver.add_clause s [ Lit.pos 1; Lit.pos 2 ];
  Solver.add_clause s [ Lit.neg_of_var 1; Lit.pos 3 ];
  check Alcotest.bool "sat under [1]" true
    (Solver.solve ~assumptions:[ Lit.pos 1 ] s = Solver.Sat);
  check Alcotest.bool "model forces 1" true (Solver.model_value s 1);
  check Alcotest.bool "model propagates 3" true (Solver.model_value s 3);
  check Alcotest.bool "sat under [¬1]" true
    (Solver.solve ~assumptions:[ Lit.neg_of_var 1 ] s = Solver.Sat);
  check Alcotest.bool "model forces ¬1 and 2" true
    ((not (Solver.model_value s 1)) && Solver.model_value s 2);
  (* assumptions are per-call: an unconstrained solve is unaffected *)
  check Alcotest.bool "sat with no assumptions" true (Solver.solve s = Solver.Sat)

let solver_assumptions_core () =
  (* ¬1 ∨ ¬2 refutes assuming {1, 2}; assumption 3 is irrelevant and
     must stay out of the final-conflict core *)
  let s = Solver.create ~nvars:3 () in
  Solver.add_clause s [ Lit.neg_of_var 1; Lit.neg_of_var 2 ];
  let assumptions = [ Lit.pos 3; Lit.pos 1; Lit.pos 2 ] in
  check Alcotest.bool "unsat under assumptions" true
    (Solver.solve ~assumptions s = Solver.Unsat);
  let core = Solver.unsat_core s in
  let mem l = List.exists (Lit.equal l) core in
  check Alcotest.bool "core ⊆ assumptions" true
    (List.for_all (fun l -> List.exists (Lit.equal l) assumptions) core);
  check Alcotest.bool "1 in core" true (mem (Lit.pos 1));
  check Alcotest.bool "2 in core" true (mem (Lit.pos 2));
  check Alcotest.bool "irrelevant 3 not in core" false (mem (Lit.pos 3));
  (* the refutation did not poison the clause database *)
  check Alcotest.bool "sat without assumptions" true (Solver.solve s = Solver.Sat);
  check Alcotest.bool "core cleared by later solve" true (Solver.unsat_core s = [])

let solver_assumptions_unknown_var () =
  let s = Solver.create ~nvars:2 () in
  Alcotest.check_raises "unknown assumption variable"
    (Invalid_argument "Solver.solve: unknown assumption variable") (fun () ->
      ignore (Solver.solve ~assumptions:[ Lit.pos 7 ] s))

let assumptions_gen =
  let open QCheck2.Gen in
  let* cnf = cnf_gen in
  let* raw = list_size (int_range 0 4) (pair (int_range 1 cnf.Cnf.nvars) bool) in
  return (cnf, List.map (fun (v, s) -> Lit.make v s) raw)

let solver_assumptions_agree_with_units =
  qtest ~count:300 "solve under assumptions = solve with unit clauses"
    assumptions_gen
    (fun (cnf, assumptions) ->
      let with_units extra =
        Cnf.make ~nvars:cnf.Cnf.nvars
          (Array.to_list cnf.Cnf.clauses @ List.map (fun l -> [| l |]) extra)
      in
      let s = Solver.of_cnf cnf in
      let r = Solver.solve ~assumptions s in
      let expected = brute_sat (with_units assumptions) in
      (match r with
      | Solver.Sat ->
          expected
          && List.for_all
               (fun l -> Solver.model_value s (Lit.var l) = Lit.sign l)
               assumptions
      | Solver.Unsat ->
          (not expected)
          && (let core = Solver.unsat_core s in
              List.for_all
                (fun l -> List.exists (Lit.equal l) assumptions)
                core
              && not (brute_sat (with_units core)))
      | Solver.Unknown -> false)
      (* and the assumptions leave no trace in later solves *)
      && (Solver.solve s = Solver.Sat) = brute_sat cnf)

(* --- enumeration -------------------------------------------------------------- *)

let enumeration_count_matches_brute =
  qtest ~count:300 "oracle enumeration finds exactly the brute-force models" cnf_gen
    (fun cnf ->
      let models, complete = Enum_oracle.run cnf in
      complete && List.length models = brute_count cnf)

let enumeration_models_distinct_and_valid =
  qtest ~count:150 "oracle enumerated projections are distinct" cnf_gen (fun cnf ->
      let models, _ = Enum_oracle.run cnf in
      List.length (List.sort_uniq Stdlib.compare models) = List.length models)

let enumeration_limit () =
  (* free space over 4 vars: 16 models; limit 5 must stop early *)
  let cnf = Cnf.make ~nvars:4 [ [| Lit.pos 1; Lit.neg_of_var 1 |] ] in
  let models, complete = Enum_oracle.run ~limit:5 cnf in
  check Alcotest.int "limited" 5 (List.length models);
  check Alcotest.bool "incomplete" false complete

let enumeration_projected () =
  (* x1 xor-free: clauses (1 2)(−1 2): 2 over full space {x2=1}x{x1};
     projected on var 2 only: a single projected model *)
  let cnf =
    Cnf.make ~projection:[| 2 |] ~nvars:2
      [ [| Lit.pos 1; Lit.pos 2 |]; [| Lit.neg_of_var 1; Lit.pos 2 |] ]
  in
  let models, complete = Enum_oracle.run cnf in
  check Alcotest.bool "complete" true complete;
  check Alcotest.int "one projected model" 1 (List.length models)

(* --- xor ------------------------------------------------------------------------- *)

(* assert [xor vars = rhs] on [s] through its CNF encoding *)
let add_xor s ~vars ~rhs =
  List.iter (Solver.add_clause s) (Xor.clauses_of ~fresh:(fun () -> Solver.new_var s) ~vars ~rhs)

let xor_model_count k =
  let s = Solver.create ~nvars:k () in
  add_xor s ~vars:(List.init k (fun i -> i + 1)) ~rhs:true;
  let count = ref 0 in
  let continue = ref true in
  while !continue do
    match Solver.solve s with
    | Solver.Sat ->
        incr count;
        Solver.add_clause s
          (List.init k (fun i -> Lit.make (i + 1) (not (Solver.model_value s (i + 1)))))
    | _ -> continue := false
  done;
  !count

let xor_counts () =
  (* an odd-parity constraint over k variables has 2^(k-1) solutions *)
  List.iter
    (fun k -> check Alcotest.int (Printf.sprintf "xor %d" k) (1 lsl (k - 1)) (xor_model_count k))
    [ 1; 2; 3; 4; 5; 8; 11 ]

let xor_semantics =
  qtest ~count:200 "encoded xor accepts exactly the right assignments"
    QCheck2.Gen.(pair (int_range 1 7) bool)
    (fun (k, rhs) ->
      (* enumerate projected models and check parity of each *)
      let fresh_counter = ref k in
      let fresh () = incr fresh_counter; !fresh_counter in
      let clauses = Xor.clauses_of ~fresh ~vars:(List.init k (fun i -> i + 1)) ~rhs in
      let cnf =
        Cnf.make ~projection:(Array.init k (fun i -> i + 1)) ~nvars:!fresh_counter
          (List.map Array.of_list clauses)
      in
      let models, _ = Enum_oracle.run cnf in
      List.for_all
        (fun m ->
          let parity = Array.fold_left (fun acc b -> if b then not acc else acc) false m in
          parity = rhs)
        models
      && List.length models = if k = 0 then 0 else 1 lsl (k - 1))

let xor_empty () =
  let s = Solver.create ~nvars:1 () in
  add_xor s ~vars:[] ~rhs:true;
  check Alcotest.bool "empty xor = 1 is unsat" true (Solver.solve s = Solver.Unsat);
  let s2 = Solver.create ~nvars:1 () in
  add_xor s2 ~vars:[] ~rhs:false;
  check Alcotest.bool "empty xor = 0 is sat" true (Solver.solve s2 = Solver.Sat)

let xor_guarded_roundtrip () =
  (* one solver, one guarded odd-parity constraint over 4 vars.  With
     the guard assumed the space has 2^3 = 8 models, with it disabled
     all 2^4 = 16 — and re-enabling restores 8, i.e. disabling leaves
     no residue.  Each enumeration blocks models behind its own fresh
     cell literal, exactly like the incremental approximate counter. *)
  let k = 4 in
  let s = Solver.create ~nvars:k () in
  let g = Xor.add_guarded s ~vars:(List.init k (fun i -> i + 1)) ~rhs:true in
  let count_under guard_lit =
    let cell = Solver.new_var s in
    let assumptions = [ Lit.pos cell; guard_lit ] in
    let n = ref 0 in
    let continue = ref true in
    while !continue do
      match Solver.solve ~assumptions s with
      | Solver.Sat ->
          incr n;
          Solver.add_clause s
            (Lit.neg_of_var cell
            :: List.init k (fun i ->
                   Lit.make (i + 1) (not (Solver.model_value s (i + 1)))))
      | _ -> continue := false
    done;
    (* retire this cell's blocking clauses *)
    Solver.add_clause s [ Lit.neg_of_var cell ];
    !n
  in
  check Alcotest.int "enabled: odd parity" 8 (count_under (Lit.pos g));
  check Alcotest.int "disabled: free space" 16 (count_under (Lit.neg_of_var g));
  check Alcotest.int "re-enabled: odd parity again" 8 (count_under (Lit.pos g))

(* --- inprocess ---------------------------------------------------------- *)

(* Reference projected model count by exhaustive enumeration: the
   number of distinct projection-variable assignments extendable to a
   model.  Small inputs only. *)
let brute_proj_count (cnf : Cnf.t) =
  let n = cnf.Cnf.nvars in
  let proj = Cnf.projection_vars cnf in
  let seen = Hashtbl.create 64 in
  for mask = 0 to (1 lsl n) - 1 do
    let a = Array.make (n + 1) false in
    for v = 1 to n do
      a.(v) <- mask land (1 lsl (v - 1)) <> 0
    done;
    if Cnf.eval cnf a then begin
      let key = Array.fold_left (fun acc v -> (acc * 2) + Bool.to_int a.(v)) 1 proj in
      Hashtbl.replace seen key ()
    end
  done;
  Hashtbl.length seen

let inprocess_cnf_gen =
  let open QCheck2.Gen in
  let* nvars = int_range 2 10 in
  let* nclauses = int_range 0 30 in
  let* raw =
    list_size (return nclauses)
      (list_size (int_range 1 3) (pair (int_range 1 nvars) bool))
  in
  let* proj_mask = int_range 0 ((1 lsl nvars) - 1) in
  let clauses =
    List.map (fun lits -> Array.of_list (List.map (fun (v, s) -> Lit.make v s) lits)) raw
  in
  let projection =
    List.init nvars (fun i -> i + 1)
    |> List.filter (fun v -> proj_mask land (1 lsl (v - 1)) <> 0)
    |> Array.of_list
  in
  let cnf =
    if Array.length projection = 0 then Cnf.make ~nvars clauses
    else Cnf.make ~projection ~nvars clauses
  in
  return cnf

let inprocess_preserves_projected_count =
  qtest ~count:500 "inprocess preserves the projected model count"
    inprocess_cnf_gen (fun cnf ->
      let r = Inprocess.simplify cnf in
      r.Inprocess.cnf.Cnf.nvars = cnf.Cnf.nvars
      && r.Inprocess.cnf.Cnf.projection = cnf.Cnf.projection
      && brute_proj_count r.Inprocess.cnf = brute_proj_count cnf)

let inprocess_subsumption () =
  (* (x1) subsumes (x1 ∨ x2): the fat clause must go, the forced
     projected unit must be re-emitted *)
  let cnf =
    Cnf.make ~projection:[| 1; 2 |] ~nvars:2
      [ [| Lit.pos 1 |]; [| Lit.pos 1; Lit.pos 2 |] ]
  in
  let r = Inprocess.simplify cnf in
  check Alcotest.bool "unit applied" true (r.Inprocess.stats.Inprocess.units >= 1);
  check Alcotest.int "only the re-emitted unit remains" 1
    (Cnf.num_clauses r.Inprocess.cnf);
  check Alcotest.int "projected count preserved" 2 (brute_proj_count r.Inprocess.cnf)

let inprocess_self_subsumption () =
  (* (x1 ∨ x2) strengthens (¬x1 ∨ x2 ∨ x3) to (x2 ∨ x3) *)
  let cnf =
    Cnf.make ~projection:[| 1; 2; 3 |] ~nvars:3
      [ [| Lit.pos 1; Lit.pos 2 |]; [| Lit.neg_of_var 1; Lit.pos 2; Lit.pos 3 |] ]
  in
  let r = Inprocess.simplify cnf in
  check Alcotest.bool "a literal was stripped" true
    (r.Inprocess.stats.Inprocess.strengthened >= 1);
  check Alcotest.int "projected count preserved" (brute_proj_count cnf)
    (brute_proj_count r.Inprocess.cnf)

let inprocess_eliminates_auxiliary () =
  (* x3 ↔ (x1 ∧ x2) with projection {1,2}: x3 is eliminable, all its
     resolvents are tautologies, so the whole definition vanishes *)
  let cnf =
    Cnf.make ~projection:[| 1; 2 |] ~nvars:3
      [
        [| Lit.neg_of_var 3; Lit.pos 1 |];
        [| Lit.neg_of_var 3; Lit.pos 2 |];
        [| Lit.pos 3; Lit.neg_of_var 1; Lit.neg_of_var 2 |];
      ]
  in
  let r = Inprocess.simplify cnf in
  check Alcotest.int "aux eliminated" 1 r.Inprocess.stats.Inprocess.eliminated;
  check Alcotest.int "no clauses left" 0 (Cnf.num_clauses r.Inprocess.cnf);
  check Alcotest.int "projected count preserved" 4 (brute_proj_count r.Inprocess.cnf)

let inprocess_never_eliminates_projected () =
  (* with projection = None every variable is projected: elimination
     must not fire, and the full model count must be preserved *)
  let cnf =
    Cnf.make ~nvars:3
      [
        [| Lit.neg_of_var 3; Lit.pos 1 |];
        [| Lit.neg_of_var 3; Lit.pos 2 |];
        [| Lit.pos 3; Lit.neg_of_var 1; Lit.neg_of_var 2 |];
      ]
  in
  let r = Inprocess.simplify cnf in
  check Alcotest.int "nothing eliminated" 0 r.Inprocess.stats.Inprocess.eliminated;
  check Alcotest.int "full count preserved" (brute_proj_count cnf)
    (brute_proj_count r.Inprocess.cnf)

let inprocess_unsat () =
  let cnf = Cnf.make ~nvars:2 [ [| Lit.pos 1 |]; [| Lit.neg_of_var 1 |] ] in
  let r = Inprocess.simplify cnf in
  check Alcotest.int "single empty clause" 1 (Cnf.num_clauses r.Inprocess.cnf);
  check Alcotest.int "count 0" 0 (brute_proj_count r.Inprocess.cnf)

let () =
  Alcotest.run "sat"
    [
      ( "vec",
        [
          Alcotest.test_case "basics" `Quick vec_basic;
          Alcotest.test_case "errors" `Quick vec_errors;
        ] );
      ( "solver",
        [
          solver_decides_like_brute_force;
          solver_model_satisfies;
          Alcotest.test_case "trivial cases" `Quick solver_trivia;
          Alcotest.test_case "units and tautologies" `Quick solver_units_and_taut;
          Alcotest.test_case "incremental clauses" `Quick solver_incremental;
          Alcotest.test_case "pigeonhole" `Slow solver_pigeonhole;
          Alcotest.test_case "conflict budget" `Quick solver_conflict_budget;
          Alcotest.test_case "unknown variable" `Quick solver_unknown_var;
          Alcotest.test_case "statistics" `Quick solver_stats;
        ] );
      ( "assumptions",
        [
          Alcotest.test_case "basic sat/unsat" `Quick solver_assumptions_basic;
          Alcotest.test_case "unsat core" `Quick solver_assumptions_core;
          Alcotest.test_case "unknown variable" `Quick solver_assumptions_unknown_var;
          solver_assumptions_agree_with_units;
        ] );
      ( "enumerate",
        [
          enumeration_count_matches_brute;
          enumeration_models_distinct_and_valid;
          Alcotest.test_case "limit" `Quick enumeration_limit;
          Alcotest.test_case "projection" `Quick enumeration_projected;
        ] );
      ( "xor",
        [
          Alcotest.test_case "solution counts" `Quick xor_counts;
          xor_semantics;
          Alcotest.test_case "empty xor" `Quick xor_empty;
          Alcotest.test_case "guarded round-trip" `Quick xor_guarded_roundtrip;
        ] );
      ( "inprocess",
        [
          inprocess_preserves_projected_count;
          Alcotest.test_case "subsumption" `Quick inprocess_subsumption;
          Alcotest.test_case "self-subsumption" `Quick inprocess_self_subsumption;
          Alcotest.test_case "auxiliary elimination" `Quick inprocess_eliminates_auxiliary;
          Alcotest.test_case "projected vars kept" `Quick inprocess_never_eliminates_projected;
          Alcotest.test_case "unsat collapses" `Quick inprocess_unsat;
        ] );
    ]
