open Mcml_logic
open Mcml_ml
open Mcml_counting

type counts = {
  tp : Bignat.t;
  fp : Bignat.t;
  tn : Bignat.t;
  fn : Bignat.t;
  time : float;
}

(* The [accmc.counts] span around one evaluation: [run] returns
   [(tp, fp, tn, fn)], or [None] on a timeout. *)
let observed ~backend ~nprimary run =
  let start = Mcml_obs.Obs.monotonic_s () in
  let open Mcml_obs in
  let sp = if Obs.enabled () then Some (Obs.start "accmc.counts") else None in
  let result = run () in
  let time = Mcml_obs.Obs.monotonic_s () -. start in
  (match sp with
  | None -> ()
  | Some sp ->
      Obs.add "accmc.evaluations" 1;
      if Option.is_none result then Obs.add "accmc.timeouts" 1;
      Obs.finish sp
        ~attrs:
          [
            ("backend", Obs.Str (Counter.name backend));
            ("nprimary", Obs.Int nprimary);
            ("outcome", Obs.Str (if Option.is_none result then "timeout" else "complete"));
            ("time_s", Obs.Float time);
          ]);
  Option.map (fun (tp, fp, tn, fn) -> { tp; fp; tn; fn; time }) result

(* Generalized core: works for any classifier whose true/false sides are
   given as (count-preserving) CNFs over the primary variables — decision
   trees via Tree2cnf, binarized networks via Bnn2cnf. *)
let counts_sides ?budget ?pool ?cache ~backend ~phi ~not_phi ~space ~nprimary
    ((side_true : Cnf.t), (side_false : Cnf.t)) =
  observed ~backend ~nprimary @@ fun () ->
  let mc gt side () =
    let problem = Cnf.conjoin ~nshared:nprimary gt side in
    Option.map
      (fun o -> o.Counter.count)
      (Counter.count ?budget ?cache (Counter.query ~backend problem))
  in
  (* Exact: ϕ is a total function of the primary variables, so within
     the evaluation universe the models of [τ] split exactly into
     [ϕ ∧ τ] and [¬ϕ ∧ τ]; counting the universe side and subtracting
     avoids the expensive ¬ϕ formulas.  Approx and Brute take the
     paper's four counts literally: a difference of two estimates would
     compound error, and Brute stays the literal reduction's reference.
     The four counts are independent: a pool runs them as one batch,
     recombined in this fixed order. *)
  let exact = match backend with Counter.Exact -> true | Counter.Approx _ | Counter.Brute -> false in
  let other = if exact then space else not_phi in
  Option.map
    (function
      | [ tp; other_t; fn; other_f ] ->
          if exact then (tp, Bignat.sub other_t tp, Bignat.sub other_f fn, fn)
          else (tp, other_t, other_f, fn)
      | _ -> assert false)
    (Mcml_exec.Pool.all_some ?pool
       [ mc phi side_true; mc other side_true; mc phi side_false; mc other side_false ])

let counts ?budget ?pool ?cache ~backend ~phi ~not_phi ~space ~nprimary
    (tree : Decision_tree.t) =
  counts_sides ?budget ?pool ?cache ~backend ~phi ~not_phi ~space ~nprimary
    ( Tree2cnf.cnf_of_label ~nfeatures:nprimary tree ~label:true,
      Tree2cnf.cnf_of_label ~nfeatures:nprimary tree ~label:false )

(* A tree side is the disjoint union of its paths, so its models in a
   compiled form are the form conditioned on each path, summed.  The two
   sides partition the space, so only the side with fewer paths is
   conditioned and the other is the form's total minus it.  The universe
   is forced first: the caller may keep it across queries. *)
let conditioned ~phi ~space ~nprimary (tree : Decision_tree.t) =
  observed ~backend:Counter.Exact ~nprimary @@ fun () ->
  match
    let space = space () in
    (space, phi ())
  with
  | exception Exact.Timeout -> None
  | space, phi ->
      let terms label =
        List.filter_map
          (fun (conds, leaf) ->
            if leaf = label then Some (Array.of_list (List.map Tree2cnf.lit_of_condition conds))
            else None)
          (Decision_tree.paths tree)
      in
      let on_true = terms true and on_false = terms false in
      let label, side =
        if List.length on_true <= List.length on_false then (true, on_true) else (false, on_false)
      in
      (* (models on the true side, models on the false side) *)
      let split dnnf =
        let c = Exact.Dnnf.condition dnnf side in
        let rest = Bignat.sub (Exact.Dnnf.total dnnf) c in
        if label then (c, rest) else (rest, c)
      in
      let tp, fn = split phi and u_true, u_false = split space in
      Some (tp, Bignat.sub u_true tp, Bignat.sub u_false fn, fn)

let confusion c =
  {
    Metrics.tp = Bignat.to_float c.tp;
    fp = Bignat.to_float c.fp;
    tn = Bignat.to_float c.tn;
    fn = Bignat.to_float c.fn;
  }

let check_total c ~nprimary =
  let total = List.fold_left Bignat.add Bignat.zero [ c.tp; c.fp; c.tn; c.fn ] in
  Bignat.compare total (Bignat.pow2 nprimary) <= 0
