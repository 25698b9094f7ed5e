open Mcml_logic
open Mcml_sat

type config = {
  epsilon : float;
  delta : float;
  seed : int;
  max_rounds : int option;
  max_conflicts : int;
}

let default =
  {
    epsilon = 0.8;
    delta = 0.2;
    seed = 1;
    max_rounds = None;
    max_conflicts = 0;
  }

exception Timeout
exception Inconclusive

let pivot config =
  2 * int_of_float (ceil (4.92 *. ((1.0 +. (1.0 /. config.epsilon)) ** 2.0)))

(* Number of median rounds for confidence 1-δ (ApproxMC's table-driven
   choice, conservatively ⌈17 log₂(3/δ)⌉ capped to keep runtimes sane;
   callers override with [max_rounds] for benchmarking). *)
let rounds_of_delta delta =
  let t = int_of_float (ceil (17.0 *. log (3.0 /. delta) /. log 2.0)) in
  let t = max 1 (min t 33) in
  if t mod 2 = 0 then t + 1 else t

let search config ~proj ~cells =
  let rng = Splitmix.create config.seed in
  let n = Array.length proj in
  let pivot = pivot config in
  (* One round's pool of parity constraints, drawn up-front so the RNG is
     consumed identically no matter which prefixes [m] the search probes
     (an explicit loop: the evaluation order of [Array.init] is
     unspecified). *)
  let draw_pool () =
    let pool = Array.make (max n 1) ([], false) in
    for i = 0 to n - 1 do
      let vars =
        Array.to_list proj |> List.filter (fun _ -> Splitmix.bool rng)
      in
      let rhs = Splitmix.bool rng in
      pool.(i) <- (vars, rhs)
    done;
    pool
  in
  (* quick exact path: if the formula has at most [pivot] solutions,
     the probe is already an exact count *)
  let c0 = cells [||] 0 in
  if c0 <= pivot then Bignat.of_int c0
  else begin
    let rounds =
      match config.max_rounds with
      | Some r -> max 1 r
      | None -> rounds_of_delta config.delta
    in
    let estimates = ref [] in
    let prev_m = ref (max 1 (n / 2)) in
    for _round = 1 to rounds do
      (* binary search for the smallest m with cell count <= pivot;
         cell counts decrease (in expectation) as m grows *)
      let pool = draw_pool () in
      let query_raw = cells pool in
      let cell_count = Hashtbl.create 16 in
      let query m =
        match Hashtbl.find_opt cell_count m with
        | Some c -> c
        | None ->
            let c = query_raw m in
            Hashtbl.add cell_count m c;
            c
      in
      (* gallop from the previous round's m to bracket the crossover *)
      let lo = ref 0 and hi = ref n in
      let m = ref (max 1 (min n !prev_m)) in
      if query !m > pivot then begin
        (* need more constraints *)
        lo := !m;
        let step = ref 1 in
        while !m + !step < n && query (!m + !step) > pivot do
          lo := !m + !step;
          step := !step * 2
        done;
        hi := min n (!m + !step)
      end
      else begin
        hi := !m;
        let step = ref 1 in
        while !m - !step > 0 && query (!m - !step) <= pivot do
          hi := !m - !step;
          step := !step * 2
        done;
        lo := max 0 (!m - !step)
      end;
      (* invariant: query lo > pivot (or lo = 0), query hi <= pivot *)
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if query mid > pivot then lo := mid else hi := mid
      done;
      let m_star = !hi in
      prev_m := m_star;
      let c = query m_star in
      if c > 0 && c <= pivot then
        estimates := Bignat.shift_left (Bignat.of_int c) m_star :: !estimates
    done;
    match List.sort Bignat.compare !estimates with
    | [] -> Bignat.zero (* every round failed: report the degenerate estimate *)
    | sorted ->
        let k = List.length sorted in
        List.nth sorted (k / 2)
  end

let count ?budget ?(config = default) (cnf : Cnf.t) : Bignat.t =
  let deadline =
    match budget with
    | None -> None
    | Some b -> Some (Mcml_obs.Obs.monotonic_s () +. b)
  in
  let check_time () =
    match deadline with
    | Some d when Mcml_obs.Obs.monotonic_s () > d -> raise Timeout
    | _ -> ()
  in
  let proj = Cnf.projection_vars cnf in
  let n = Array.length proj in
  let pivot = pivot config in
  (* telemetry: work done so far, reported even on timeout *)
  let queries = ref 0 in
  let rounds = ref 0 in
  let solver_builds = ref 0 in
  let replayed_models = ref 0 in
  let free_queries = ref 0 in
  (* Model store for the incremental path.  Every model the call has
     ever enumerated is a projected assignment of the base CNF, stored
     as a bool array aligned with [proj].  Whether such an assignment
     lies in the cell of any XOR prefix is pure parity arithmetic, so a
     later query can pre-block the known members and start its counter
     there instead of re-discovering them one SAT solve at a time.
     Counts are set cardinalities, so replay cannot change an estimate —
     only how much solving it takes to reach it. *)
  let store = ref [] in
  let var_index = Hashtbl.create (2 * max n 1) in
  Array.iteri (fun j v -> Hashtbl.replace var_index v j) proj;
  let lits_of sigma =
    Array.to_list (Array.mapi (fun j v -> Lit.make v (not sigma.(j))) proj)
  in
  let in_cell pool sigma m =
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < m do
      let vars, rhs = pool.(!i) in
      let parity =
        List.fold_left
          (fun acc v -> acc <> sigma.(Hashtbl.find var_index v))
          false vars
      in
      if parity <> rhs then ok := false;
      incr i
    done;
    !ok
  in
  (* Count the projected models of [s]'s current constraint system up to
     [pivot + 1] by blocking enumeration under [assumptions], adding
     each model found to the store.  Each model is excluded by a
     blocking clause over the sampling set; with [block_guard = Some b]
     the block only bites while [b] is assumed, so it retires together
     with the cell.  The result — min(|cell|, pivot + 1) — is the
     cardinality of a set of projected assignments, so it does not
     depend on the order models are found in.  A [Solver.Unknown]
     (per-query conflict budget exhausted) would otherwise masquerade as
     an undercount: surface it. *)
  let bounded_count ?(replayed = 0) ~s ~assumptions ~block_guard () =
    incr queries;
    let found = ref replayed in
    let continue = ref true in
    while !continue && !found <= pivot do
      check_time ();
      match Solver.solve ~max_conflicts:config.max_conflicts ~assumptions s with
      | Solver.Sat ->
          incr found;
          let sigma = Array.map (fun v -> Solver.model_value s v) proj in
          store := sigma :: !store;
          let blocking = lits_of sigma in
          let blocking =
            match block_guard with
            | None -> blocking
            | Some b -> Lit.neg_of_var b :: blocking
          in
          Solver.add_clause s blocking
      | Solver.Unsat -> continue := false
      | Solver.Unknown -> raise Inconclusive
    done;
    !found
  in
  (* The cell counter handed to [search].  The exactness probe runs on a
     plain solver and seeds the model store.  Each round keeps one solver
     carrying all [n] pool XORs behind activation literals; a query
     toggles them by assumption, so learnt clauses survive the whole
     galloping/binary search. *)
  let cells pool =
    check_time ();
    incr solver_builds;
    let s = Solver.of_cnf cnf in
    if Array.length pool = 0 then fun _ ->
      bounded_count ~s ~assumptions:[] ~block_guard:None ()
    else begin
      incr rounds;
      let guards = Array.make n 0 in
      if n <= Solver.parity_max_vars then begin
        (* native parity rows: one bitmask equation per pool constraint,
           no CNF encoding, no auxiliary variables — the guard is a bare
           marker variable toggled by the query's assumptions *)
        Solver.parity_reset s ~vars:proj;
        for i = 0 to n - 1 do
          let vars, rhs = pool.(i) in
          let g = Solver.new_var s in
          guards.(i) <- g;
          let mask =
            List.fold_left
              (fun acc v -> acc lor (1 lsl Hashtbl.find var_index v))
              0 vars
          in
          Solver.parity_add s ~mask ~rhs ~guard:g
        done
      end
      else
        for i = 0 to n - 1 do
          let vars, rhs = pool.(i) in
          guards.(i) <- Xor.add_guarded s ~vars ~rhs
        done;
      fun m ->
        (* replay: every stored model whose parity prefix puts it in this
           cell is blocked up-front and counted without solving *)
        let members = List.filter (fun sigma -> in_cell pool sigma m) !store in
        let replayed = List.length members in
        replayed_models := !replayed_models + replayed;
        if replayed > pivot then begin
          incr queries;
          incr free_queries;
          pivot + 1
        end
        else begin
          let cell = Solver.new_var s in
          List.iter
            (fun sigma ->
              Solver.add_clause s (Lit.neg_of_var cell :: lits_of sigma))
            members;
          let assumptions =
            Lit.pos cell
            :: List.init n (fun i ->
                   if i < m then Lit.pos guards.(i) else Lit.neg_of_var guards.(i))
          in
          let c =
            bounded_count ~replayed ~s ~assumptions ~block_guard:(Some cell) ()
          in
          (* retire the cell: its blocking clauses are satisfied forever *)
          Solver.add_clause s [ Lit.neg_of_var cell ];
          c
        end
    end
  in
  let run () = search config ~proj ~cells in
  if not (Mcml_obs.Obs.enabled ()) then run ()
  else begin
    let open Mcml_obs in
    let sp = Obs.start "count.approx" in
    let t0 = Obs.monotonic_s () in
    let attrs outcome =
      [
        ("outcome", Obs.Str outcome);
        ("pivot", Obs.Int pivot);
        ("rounds", Obs.Int !rounds);
        ("sat_queries", Obs.Int !queries);
        ("solver_builds", Obs.Int !solver_builds);
        ("replayed_models", Obs.Int !replayed_models);
        ("free_queries", Obs.Int !free_queries);
        ("proj_vars", Obs.Int n);
        ("budget_s", match budget with Some b -> Obs.Float b | None -> Obs.Str "none");
        ("consumed_s", Obs.Float (Obs.monotonic_s () -. t0));
      ]
    in
    let account () =
      Obs.add "count.approx.calls" 1;
      Obs.add "count.approx.rounds" !rounds;
      Obs.add "count.approx.sat_queries" !queries;
      Obs.add "count.approx.solver_builds" !solver_builds;
      Obs.add "count.approx.replayed_models" !replayed_models;
      Obs.add "count.approx.free_queries" !free_queries
    in
    match run () with
    | r ->
        account ();
        Obs.finish sp ~attrs:(("count", Obs.Str (Bignat.to_string r)) :: attrs "complete");
        r
    | exception Timeout ->
        account ();
        Obs.add "count.approx.timeouts" 1;
        Obs.finish sp ~attrs:(attrs "timeout");
        raise Timeout
    | exception Inconclusive ->
        account ();
        Obs.add "count.approx.inconclusive" 1;
        Obs.finish sp ~attrs:(attrs "inconclusive");
        raise Inconclusive
  end

let count_opt ?budget ?config cnf =
  match count ?budget ?config cnf with
  | c -> Some c
  | exception Timeout -> None
