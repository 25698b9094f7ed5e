(* The blocking-clause all-solutions enumerator: solve, block the
   projection of the model with a fresh clause, repeat until
   unsatisfiable.  Production enumerates off the compiled decision-DNNF
   ([Exact.Dnnf.iter_models]); this loop shares no code with it above
   the CNF, which makes it the reference the walk is tested against. *)

open Mcml_logic
open Mcml_sat

(* The projected models of [cnf] in the order the solver finds them,
   each over [Cnf.projection_vars cnf], at most [limit] of them; the
   boolean is [true] when the solver proved there are no more. *)
let run ?(limit = max_int) (cnf : Cnf.t) : bool array list * bool =
  let projection = Cnf.projection_vars cnf in
  let s = Solver.of_cnf cnf in
  let rec go acc n =
    if n >= limit then (List.rev acc, false)
    else
      match Solver.solve s with
      | Solver.Sat ->
          let m = Array.map (Solver.model_value s) projection in
          Solver.add_clause s (Array.to_list (Array.mapi (fun i v -> Lit.make v (not m.(i))) projection));
          go (m :: acc) (n + 1)
      | Solver.Unsat -> (List.rev acc, true)
      | Solver.Unknown -> failwith "Enum_oracle.run: solver gave up without a conflict budget"
  in
  go [] 0

(* All projected models, [run] once per cube over the first six
   projection variables.  Each solver only ever holds the
   blocking clauses of its own cube, which keeps the loop near-linear
   on the tens of thousands of models of a scope-4 property. *)
let all (cnf : Cnf.t) : bool array list =
  let proj = Cnf.projection_vars cnf in
  let k = min 6 (Array.length proj) in
  List.concat_map
    (fun mask ->
      let cube = List.init k (fun i -> [| Lit.make proj.(i) (mask land (1 lsl i) <> 0) |]) in
      let models, _ =
        run
          (Cnf.make ?projection:cnf.Cnf.projection ~nvars:cnf.Cnf.nvars
             (Array.to_list cnf.Cnf.clauses @ cube))
      in
      models)
    (List.init (1 lsl k) Fun.id)
