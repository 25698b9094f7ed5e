open Mcml_logic

(* Emit the clauses for a short xor: [xor vars = rhs].  A clause with
   positive-literal set [S] forbids exactly the assignment that is 0 on
   [S] and 1 elsewhere; that assignment has parity [(k - |S|) mod 2].
   We forbid every assignment of parity [1 - rhs]. *)
let direct_clauses (vars : int array) (rhs : bool) : Lit.t list list =
  let k = Array.length vars in
  let clauses = ref [] in
  for mask = 0 to (1 lsl k) - 1 do
    (* mask bit i set = literal i positive *)
    let pos_count = ref 0 in
    for i = 0 to k - 1 do
      if mask land (1 lsl i) <> 0 then incr pos_count
    done;
    let forbidden_parity = (k - !pos_count) land 1 in
    if forbidden_parity = if rhs then 0 else 1 then begin
      let clause =
        List.init k (fun i -> Lit.make vars.(i) (mask land (1 lsl i) <> 0))
      in
      clauses := clause :: !clauses
    end
  done;
  !clauses

let chunk_size = 4

let clauses_of ~fresh ~vars ~rhs =
  match vars with
  | [] -> if rhs then [ [] ] else []
  | _ ->
      let clauses = ref [] in
      let rec go vars rhs =
        let n = List.length vars in
        if n <= chunk_size then
          clauses := direct_clauses (Array.of_list vars) rhs @ !clauses
        else begin
          (* define aux = xor of the first (chunk_size - 1) variables,
             i.e. assert xor(head..., aux) = 0, then continue *)
          let rec split i acc rest =
            if i = chunk_size - 1 then (List.rev acc, rest)
            else
              match rest with
              | [] -> (List.rev acc, [])
              | x :: tl -> split (i + 1) (x :: acc) tl
          in
          let head, tail = split 0 [] vars in
          let aux = fresh () in
          clauses := direct_clauses (Array.of_list (head @ [ aux ])) false @ !clauses;
          go (aux :: tail) rhs
        end
      in
      go vars rhs;
      !clauses

let add_guarded s ~vars ~rhs =
  let g = Solver.new_var s in
  let aux = ref [] in
  let fresh () =
    let v = Solver.new_var s in
    aux := v :: !aux;
    v
  in
  let cs = clauses_of ~fresh ~vars ~rhs in
  if Mcml_obs.Obs.enabled () then begin
    Mcml_obs.Obs.add "xor.guarded_constraints" 1;
    Mcml_obs.Obs.add "xor.clauses" (List.length cs)
  end;
  (* ¬g ∨ C: the constraint only bites while g is assumed true.  With g
     assumed false every clause is satisfied by the guard literal. *)
  List.iter (fun c -> Solver.add_clause s (Lit.neg_of_var g :: c)) cs;
  (* g ∨ ¬aux: a disabled constraint's chain auxiliaries would otherwise
     be left unconstrained, and the solver would have to branch on every
     one of them in every solve; pinning them false turns that into unit
     propagation.  Projected counts are unaffected — auxiliaries are
     never in the sampling set.  *)
  List.iter (fun v -> Solver.add_clause s [ Lit.pos g; Lit.neg_of_var v ]) !aux;
  g
