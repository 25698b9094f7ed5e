open Mcml_logic
open Mcml_ml
open Mcml_props
open Mcml_counting

type data_config = {
  scope : int;
  symmetry : bool;
  max_positives : int;
  seed : int;
}

type generated = {
  dataset : Dataset.t;
  num_positive_solutions : int;
  positives_complete : bool;
  scope : int;
  symmetry : bool;
}

exception Unbalanceable of string

(* Rejection-sample [num_pos] distinct negatives of [prop] at [scope].
   All randomness comes from the [rng] handed in — there is no hidden
   global stream, so the sample depends only on that rng's seed and is
   reproducible regardless of what other domains are doing. *)
let sample_negatives ~rng (prop : Props.t) ~scope ~num_pos =
  let nfeatures = scope * scope in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create (2 * num_pos) in
  let key bits =
    String.init (Array.length bits) (fun i -> if bits.(i) then '1' else '0')
  in
  let negatives = ref [] in
  let found = ref 0 in
  let attempts = ref 0 in
  let max_attempts = 1000 * num_pos in
  while !found < num_pos && !attempts < max_attempts do
    incr attempts;
    let bits = Array.init nfeatures (fun _ -> Splitmix.bool rng) in
    if not (prop.Props.check ~scope bits) then begin
      let k = key bits in
      if not (Hashtbl.mem seen k) then begin
        Hashtbl.add seen k ();
        negatives := bits :: !negatives;
        incr found
      end
    end
  done;
  if !found < num_pos then
    raise
      (Unbalanceable
         (Printf.sprintf "could not sample %d distinct negatives for %s (scope %d)" num_pos
            prop.Props.name scope));
  !negatives

let generate_core (prop : Props.t) (cfg : data_config) : generated =
  let analyzer = Props.analyzer ~scope:cfg.scope in
  (* a capped positive set is a uniform sample seeded from the config *)
  let insts, complete =
    Mcml_alloy.Analyzer.enumerate ~symmetry:cfg.symmetry ~limit:cfg.max_positives
      ~seed:(cfg.seed + 2) analyzer ~pred:prop.Props.pred
  in
  let positives = List.map Mcml_alloy.Instance.to_bits insts in
  let num_pos = List.length positives in
  if num_pos = 0 then
    raise
      (Unbalanceable
         (Printf.sprintf "%s has no solutions at scope %d" prop.Props.name cfg.scope));
  (* one negative per positive; sampling rng and shuffle rng are derived
     from the config seed only *)
  let negatives =
    sample_negatives ~rng:(Splitmix.create cfg.seed) prop ~scope:cfg.scope
      ~num_pos
  in
  let nfeatures = cfg.scope * cfg.scope in
  let dataset =
    Dataset.balanced
      (Splitmix.create (cfg.seed + 1))
      ~positives ~negatives ~nfeatures
  in
  {
    dataset;
    num_positive_solutions = num_pos;
    positives_complete = complete;
    scope = cfg.scope;
    symmetry = cfg.symmetry;
  }

let generate (prop : Props.t) (cfg : data_config) : generated =
  if not (Mcml_obs.Obs.enabled ()) then generate_core prop cfg
  else begin
    let open Mcml_obs in
    let sp = Obs.start "pipeline.generate" in
    let g = generate_core prop cfg in
    Obs.add "pipeline.generates" 1;
    Obs.finish sp
      ~attrs:
        [
          ("prop", Obs.Str prop.Props.name);
          ("scope", Obs.Int cfg.scope);
          ("symmetry", Obs.Bool cfg.symmetry);
          ("positives", Obs.Int g.num_positive_solutions);
          ("samples", Obs.Int (Mcml_ml.Dataset.size g.dataset));
          ("positives_complete", Obs.Bool g.positives_complete);
        ];
    g
  end

let ground_truth (prop : Props.t) ~scope ~symmetry =
  let analyzer = Props.analyzer ~scope in
  let phi = Mcml_alloy.Analyzer.cnf ~symmetry analyzer ~pred:prop.Props.pred in
  let not_phi =
    Mcml_alloy.Analyzer.cnf ~negate:true ~symmetry analyzer ~pred:prop.Props.pred
  in
  (phi, not_phi)

let space_cnf ~scope ~symmetry =
  let nprimary = scope * scope in
  if not symmetry then
    Cnf.make ~projection:(Array.init nprimary (fun i -> i + 1)) ~nvars:nprimary []
  else begin
    let analyzer = Props.analyzer ~scope in
    let var_of ~field i j = Mcml_alloy.Analyzer.var_of analyzer ~field i j in
    let breaking =
      Mcml_alloy.Symmetry.breaking_formula ~var_of (Props.spec ()) ~scope
    in
    Tseitin.cnf_of ~nprimary breaking
  end

(* Compiled forms, kept once per process: the universe of a (scope,
   symmetry), which depends on nothing else, and the ground truth ϕ∧S of
   a (property, scope, symmetry).  The memo's per-key rule makes
   concurrent first queries of a key wait for one compile, so the work,
   and the trace, do not depend on scheduling, while other keys hit or
   compile meanwhile.  A compile that times out raises out of
   [find_or_add], which then stores nothing, so a timeout is never kept.
   Its capacity holds the 50 forms of the [fast] tables with room to
   spare; DESIGN.md §4 gives their sizes. *)
let forms : Exact.Dnnf.t Mcml_exec.Memo.t =
  Mcml_exec.Memo.create ~capacity:64 ~name:"pipeline.forms" ()

let accmc ?budget ?pool ?cache ~backend ~prop ~scope ~eval_symmetry tree =
  let nprimary = scope * scope in
  match backend with
  | Counter.Exact ->
      (* translation and Tseitin run only on a miss *)
      let form what cnf =
        Mcml_exec.Memo.find_or_add forms
          ~key:(Mcml_exec.Memo.key (Printf.sprintf "%s/%d/%b" what scope eval_symmetry))
          (fun () -> Exact.Dnnf.compile ?budget (cnf ()))
      in
      Accmc.conditioned ~nprimary
        ~space:(fun () -> form "U" (fun () -> space_cnf ~scope ~symmetry:eval_symmetry))
        ~phi:(fun () ->
          form ("phi/" ^ prop.Props.pred) (fun () ->
              Mcml_alloy.Analyzer.cnf ~symmetry:eval_symmetry (Props.analyzer ~scope)
                ~pred:prop.Props.pred))
        tree
  | Counter.Approx _ | Counter.Brute ->
      let phi, not_phi = ground_truth prop ~scope ~symmetry:eval_symmetry in
      Accmc.counts ?budget ?pool ?cache ~backend ~phi ~not_phi
        ~space:(space_cnf ~scope ~symmetry:eval_symmetry)
        ~nprimary tree

let train_fraction_of_ratio (a, b) = float_of_int a /. float_of_int (a + b)

let train_eval ?(train_fraction = 0.75) ~seed kind data =
  let train, test = Dataset.split (Splitmix.create (seed + 5)) ~train_fraction data in
  (Model.train ~sizes:Model.fast_sizes ~seed kind train, train, test)

let diffmc_trees ~seed data =
  let train, _ = Dataset.split (Splitmix.create (seed + 29)) ~train_fraction:0.5 data in
  let tree ?params seed = Option.get (Model.train_tree ?params ~seed train).Model.tree in
  let t1 = tree (seed + 1) in
  let t2 =
    tree
      ~params:{ Decision_tree.max_depth = Some 4; min_samples_split = 8; max_features = None }
      (seed + 2)
  in
  (t1, t2)
