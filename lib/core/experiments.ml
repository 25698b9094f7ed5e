open Mcml_logic
open Mcml_ml
open Mcml_counting
open Mcml_props

type config = {
  threshold : int;
  min_scope : int;
  max_scope : int;
  max_positives : int;
  seed : int;
  sizes : Model.sizes;
  backend : Counter.backend;
  approx_config : Approx.config;
  budget : float;
  dt_train_fraction : float;
  ratios : (int * int) list;
  properties : Props.t list;
  pool : Mcml_exec.Pool.t option;
  cache : Counter.cache option;
}

let fast =
  {
    threshold = 150;
    min_scope = 4;
    max_scope = 5;
    max_positives = 3000;
    seed = 20200615;
    sizes = Model.fast_sizes;
    backend = Counter.Exact;
    approx_config = { Approx.default with Approx.max_rounds = Some 5 };
    budget = 60.0;
    dt_train_fraction = 0.10;
    ratios = [ (75, 25); (25, 75); (1, 99) ];
    properties = Props.all;
    pool = None;
    cache = None;
  }

let paper =
  {
    threshold = 10_000;
    min_scope = 4;
    max_scope = 20;
    max_positives = 200_000;
    seed = 20200615;
    sizes = Model.default_sizes;
    backend = Counter.Exact;
    approx_config = Approx.default;
    budget = 5000.0;
    dt_train_fraction = 0.10;
    ratios = [ (75, 25); (50, 50); (25, 75); (10, 90); (1, 99) ];
    properties = Props.all;
    pool = None;
    cache = None;
  }

let scope_for cfg prop ~symmetry =
  let scope =
    Props.select_scope prop ~symmetry ~threshold:cfg.threshold ~max_scope:cfg.max_scope
  in
  max cfg.min_scope scope

(* Telemetry wrappers: one span per experiment (table), one child span
   per property row, so a trace of a full table run reads as a tree. *)
module Obs = Mcml_obs.Obs

let exp_span name f = Obs.with_span name f

let prop_span (prop : Props.t) f =
  Obs.with_span "exp.property"
    ~attrs:(fun () -> [ ("prop", Obs.Str prop.Props.name) ])
    f

(* Row-level fan-out: every table maps a pure-per-row function over its
   rows (properties or class ratios), so with a pool the rows become
   pool tasks; [Pool.map_list] preserves input order, and each row's
   work is deterministic given the config seed, so the table contents
   are identical at any [jobs]. *)
let pmap cfg f xs =
  match cfg.pool with
  | None -> List.map f xs
  | Some pool -> Mcml_exec.Pool.map_list pool f xs

(* --- Table 1 ------------------------------------------------------------ *)

type t1_row = {
  t1_prop : string;
  t1_scope : int;
  t1_state_bits : int;
  t1_alloy : string;
  t1_approx_sym : string;
  t1_approx_nosym : string;
  t1_exact_sym : string;
  t1_exact_nosym : string;
}

let table1 cfg : t1_row list =
  exp_span "exp.table1" @@ fun () ->
  pmap cfg
    (fun prop ->
      prop_span prop @@ fun () ->
      let scope = scope_for cfg prop ~symmetry:true in
      let analyzer = Props.analyzer ~scope in
      let enumerated, complete =
        Mcml_alloy.Analyzer.enumerate ~symmetry:true ~limit:cfg.max_positives analyzer
          ~pred:prop.Props.pred
      in
      let n_enum = List.length enumerated in
      let count ~symmetry backend =
        match
          Mcml_alloy.Analyzer.count ~symmetry ~budget:cfg.budget ?cache:cfg.cache
            ~backend analyzer ~pred:prop.Props.pred
        with
        | Some o -> Bignat.to_string o.Counter.count
        | None -> "-"
      in
      let approx = Counter.Approx cfg.approx_config in
      {
        t1_prop = prop.Props.name;
        t1_scope = scope;
        t1_state_bits = scope * scope;
        t1_alloy = (if complete then string_of_int n_enum else Printf.sprintf ">=%d" n_enum);
        t1_approx_sym = count ~symmetry:true approx;
        t1_approx_nosym = count ~symmetry:false approx;
        t1_exact_sym = count ~symmetry:true Counter.Exact;
        t1_exact_nosym = count ~symmetry:false Counter.Exact;
      })
    cfg.properties

(* --- Tables 2 / 4 --------------------------------------------------------- *)

type perf_row = {
  p_ratio : int * int;
  p_model : Model.kind;
  p_metrics : Metrics.confusion;
}

let model_performance cfg ~prop ~symmetry : perf_row list =
  exp_span "exp.model_performance" @@ fun () ->
  prop_span prop @@ fun () ->
  (* this experiment slices the dataset down to 1% for training, so it
     needs more raw solutions than the counting-bound tables; mirror the
     paper's higher threshold (10k/90k there) proportionally *)
  let scope =
    max cfg.min_scope
      (Mcml_props.Props.select_scope prop ~symmetry
         ~threshold:(max cfg.threshold 800) ~max_scope:cfg.max_scope)
  in
  let data =
    Pipeline.generate prop
      { Pipeline.scope; symmetry; max_positives = cfg.max_positives; seed = cfg.seed }
  in
  List.concat
  @@ pmap cfg
       (fun ratio ->
      let fraction = Pipeline.train_fraction_of_ratio ratio in
      let rng = Splitmix.create (cfg.seed + fst ratio) in
      let train, test = Dataset.split rng ~train_fraction:fraction data.Pipeline.dataset in
      List.map
        (fun kind ->
          let model = Model.train ~sizes:cfg.sizes ~seed:(cfg.seed + 7) kind train in
          { p_ratio = ratio; p_model = kind; p_metrics = Model.evaluate model test })
        Model.kinds)
    cfg.ratios

(* --- Tables 3 / 5 / 6 / 7 -------------------------------------------------- *)

type dt_row = {
  d_prop : string;
  d_scope : int;
  d_test : Metrics.confusion;
  d_phi : Accmc.counts option;
}

let dt_generalization cfg ~data_symmetry ~eval_symmetry : dt_row list =
  exp_span "exp.dt_generalization" @@ fun () ->
  pmap cfg
    (fun prop ->
      prop_span prop @@ fun () ->
      let scope = scope_for cfg prop ~symmetry:data_symmetry in
      let data =
        Pipeline.generate prop
          {
            Pipeline.scope;
            symmetry = data_symmetry;
            max_positives = cfg.max_positives;
            seed = cfg.seed;
          }
      in
      let rng = Splitmix.create (cfg.seed + 13) in
      let train, test =
        Dataset.split rng ~train_fraction:cfg.dt_train_fraction data.Pipeline.dataset
      in
      let model = Model.train ~sizes:cfg.sizes ~seed:(cfg.seed + 7) Model.DT train in
      let tree = Option.get model.Model.tree in
      let test_metrics = Model.evaluate model test in
      let phi =
        Pipeline.accmc ~budget:cfg.budget ?pool:cfg.pool ?cache:cfg.cache
          ~backend:cfg.backend ~prop ~scope ~eval_symmetry tree
      in
      { d_prop = prop.Props.name; d_scope = scope; d_test = test_metrics; d_phi = phi })
    cfg.properties

(* --- Table 8 ---------------------------------------------------------------- *)

type diff_row = {
  f_prop : string;
  f_scope : int;
  f_counts : Diffmc.counts option;
  f_diff : float option;
}

let tree_differences cfg : diff_row list =
  exp_span "exp.tree_differences" @@ fun () ->
  pmap cfg
    (fun prop ->
      prop_span prop @@ fun () ->
      let scope = scope_for cfg prop ~symmetry:true in
      let data =
        Pipeline.generate prop
          {
            Pipeline.scope;
            symmetry = true;
            max_positives = cfg.max_positives;
            seed = cfg.seed;
          }
      in
      (* two trees with different hyperparameters, as in the paper *)
      let t1, t2 = Pipeline.diffmc_trees ~seed:cfg.seed data.Pipeline.dataset in
      let nprimary = scope * scope in
      let counts =
        Diffmc.counts ~budget:cfg.budget ?pool:cfg.pool ?cache:cfg.cache
          ~backend:cfg.backend ~nprimary t1 t2
      in
      {
        f_prop = prop.Props.name;
        f_scope = scope;
        f_counts = counts;
        f_diff = Option.map (fun c -> 100.0 *. Diffmc.diff c ~nprimary) counts;
      })
    cfg.properties

(* --- Table 9 ------------------------------------------------------------------ *)

type t9_row = { r_ratio : int * int; r_traditional : float; r_mcml : float }

type sym_row = {
  s_prop : string;
  s_scope : int;
  s_none : int;
  s_partial : int;
  s_full : int;
}

let symmetry_ablation cfg : sym_row list =
  exp_span "exp.symmetry_ablation" @@ fun () ->
  pmap cfg
    (fun prop ->
      prop_span prop @@ fun () ->
      (* orbit counting canonicalizes every solution: keep scopes small *)
      let scope = min 4 cfg.max_scope in
      let analyzer = Props.analyzer ~scope in
      let all, _ =
        Mcml_alloy.Analyzer.enumerate ~limit:cfg.max_positives analyzer
          ~pred:prop.Props.pred
      in
      let partial, _ =
        Mcml_alloy.Analyzer.enumerate ~symmetry:true ~limit:cfg.max_positives analyzer
          ~pred:prop.Props.pred
      in
      let orbits =
        List.map
          (fun i -> Mcml_alloy.Instance.to_bits (Mcml_alloy.Symmetry.canonicalize i))
          all
        |> List.sort_uniq compare
      in
      {
        s_prop = prop.Props.name;
        s_scope = scope;
        s_none = List.length all;
        s_partial = List.length partial;
        s_full = List.length orbits;
      })
    cfg.properties

let class_ratio_study cfg ~prop : t9_row list =
  exp_span "exp.class_ratio_study" @@ fun () ->
  prop_span prop @@ fun () ->
  let scope = scope_for cfg prop ~symmetry:false in
  let data =
    Pipeline.generate prop
      {
        Pipeline.scope;
        symmetry = false;
        max_positives = cfg.max_positives;
        seed = cfg.seed;
      }
  in
  let ratios = [ (99, 1); (90, 10); (75, 25); (50, 50); (25, 75); (10, 90); (1, 99) ] in
  let base = data.Pipeline.dataset in
  let n = Dataset.size base in
  pmap cfg
    (fun (pw, nw) ->
      let rng = Splitmix.create (cfg.seed + (100 * pw) + nw) in
      let skewed = Dataset.with_class_ratio rng ~pos_weight:pw ~neg_weight:nw ~size:n base in
      let train, test = Dataset.split rng ~train_fraction:0.5 skewed in
      let model = Model.train_tree ~seed:(cfg.seed + 3) train in
      let tree = Option.get model.Model.tree in
      let traditional = Metrics.precision (Model.evaluate model test) in
      let mcml =
        match
          Pipeline.accmc ~budget:cfg.budget ?pool:cfg.pool ?cache:cfg.cache
            ~backend:cfg.backend ~prop ~scope ~eval_symmetry:false tree
        with
        | Some counts -> Metrics.precision (Accmc.confusion counts)
        | None -> Float.nan
      in
      { r_ratio = (pw, nw); r_traditional = traditional; r_mcml = mcml })
    ratios
