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

type style = Direct | Complement

let default_style = function
  | Counter.Exact | Counter.Brute -> Complement
  | Counter.Approx _ -> Direct

(* Generalized core: works for any classifier whose true/false sides are
   given as (count-preserving) CNFs over the primary variables — decision
   trees via Tree2cnf, binarized networks via Bnn2cnf. *)
let style_name = function Direct -> "direct" | Complement -> "complement"

let counts_sides ?budget ?style ?pool ?cache ~backend ~phi ~not_phi ~space
    ~nprimary ((side_true : Cnf.t), (side_false : Cnf.t)) =
  let style = match style with Some s -> s | None -> default_style backend in
  let start = Mcml_obs.Obs.monotonic_s () in
  let open Mcml_obs in
  let sp =
    if Obs.enabled () then Some (Obs.start "accmc.counts") else None
  in
  let mc gt side () =
    let problem = Cnf.conjoin ~nshared:nprimary gt side in
    Option.map
      (fun o -> o.Counter.count)
      (Counter.count ?budget ?cache ~backend problem)
  in
  (* Direct: the literal reduction of the paper, four counting calls.
     Complement: ϕ is a total function of the primary variables, so
     within the evaluation universe the models of [τ] split exactly into
     [ϕ ∧ τ] and [¬ϕ ∧ τ]; counting the universe side and subtracting
     avoids the expensive ¬ϕ formulas entirely.  Only valid with an
     exact backend.  The four counts are independent: a pool runs them
     as one batch, recombined in this fixed order. *)
  let result =
    Option.map
      (fun counts ->
        match (style, counts) with
        | Direct, [ tp; fp; tn; fn ] -> (tp, fp, tn, fn)
        | Complement, [ tp; denom_t; fn; denom_f ] ->
            (tp, Bignat.sub denom_t tp, Bignat.sub denom_f fn, fn)
        | _ -> assert false)
      (Mcml_exec.Pool.all_some ?pool
         (match style with
         | Direct ->
             [ mc phi side_true; mc not_phi side_true; mc not_phi side_false; mc phi side_false ]
         | Complement ->
             [ mc phi side_true; mc space side_true; mc phi side_false; mc space side_false ]))
  in
  let time = Mcml_obs.Obs.monotonic_s () -. start in
  (match sp with
  | None -> ()
  | Some sp ->
      Obs.add "accmc.evaluations" 1;
      if Option.is_none result then Obs.add "accmc.timeouts" 1;
      Obs.finish sp
        ~attrs:
          [
            ("style", Obs.Str (style_name style));
            ("backend", Obs.Str (Counter.name backend));
            ("nprimary", Obs.Int nprimary);
            ("outcome", Obs.Str (if Option.is_none result then "timeout" else "complete"));
            ("time_s", Obs.Float time);
          ]);
  Option.map (fun (tp, fp, tn, fn) -> { tp; fp; tn; fn; time }) result

let counts ?budget ?style ?pool ?cache ~backend ~phi ~not_phi ~space ~nprimary
    (tree : Decision_tree.t) =
  counts_sides ?budget ?style ?pool ?cache ~backend ~phi ~not_phi ~space
    ~nprimary
    ( Tree2cnf.cnf_of_label ~nfeatures:nprimary tree ~label:true,
      Tree2cnf.cnf_of_label ~nfeatures:nprimary tree ~label:false )

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
