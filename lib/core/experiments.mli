(** Drivers that regenerate every experimental table of the paper
    (Tables 1–9).  Each driver returns structured rows; {!Report}
    renders them in the paper's layout.

    The [config] controls the scale.  {!fast} (the default for
    [bench/main.exe]) picks per-property scopes with the paper's rule —
    smallest scope with at least [threshold] positive solutions — but
    with a scaled-down threshold, cap and ensemble sizes so that the
    whole suite regenerates in minutes on a laptop; {!paper} uses the
    published thresholds (10 000 / 90 000) and scopes, which need
    hours and industrial-strength counters for the largest rows.
    EXPERIMENTS.md records the configuration used for the checked-in
    outputs.

    {b Parallelism.}  With [pool], every driver fans its rows
    (properties, or class ratios) out as pool tasks, and the row-level
    counting calls of the approximate and brute backends additionally
    batch their four counts; [cache] memoizes count outcomes across
    rows and tables (exact AccMC and DiffMC count no conjunctions, so
    they consult neither).  Row results are
    recombined in input order and all per-row randomness derives from
    [seed], so any [jobs] setting produces identical tables — only
    wall-clock times and telemetry differ.  With [pool = None] (the
    {!fast}/{!paper} default) execution is exactly the original
    sequential driver. *)

open Mcml_ml
open Mcml_counting
open Mcml_props

type config = {
  threshold : int;  (** scope selection: minimum positive count *)
  min_scope : int;
  max_scope : int;
  max_positives : int;  (** enumeration cap per property *)
  seed : int;
  sizes : Model.sizes;
  backend : Counter.backend;
  approx_config : Approx.config;
  budget : float;  (** per-count timeout, seconds (paper: 5000) *)
  dt_train_fraction : float;  (** Tables 3/5/6/7 train on 10% *)
  ratios : (int * int) list;  (** Tables 2/4 *)
  properties : Props.t list;
  pool : Mcml_exec.Pool.t option;  (** [None]: run rows sequentially *)
  cache : Counter.cache option;
      (** shared count cache *)
}

val fast : config
(** Scaled-down configuration (small scopes, short budgets) — CI and
    smoke runs; every table regenerates in seconds to minutes. *)

val paper : config
(** The paper's configuration (scopes up to the study's, 5000s
    budgets).  Hours of compute; for faithful replication runs. *)

val scope_for : config -> Props.t -> symmetry:bool -> int
(** The paper's scope-selection rule under this config. *)

(* --- Table 1: subject properties and model counts ------------------- *)

type t1_row = {
  t1_prop : string;
  t1_scope : int;
  t1_state_bits : int;  (** state space = 2^bits *)
  t1_alloy : string;  (** enumerated positives, symmetry-broken *)
  t1_approx_sym : string;
  t1_approx_nosym : string;
  t1_exact_sym : string;
  t1_exact_nosym : string;
}

val table1 : config -> t1_row list
(** Table 1: per-property solution counts, exact vs closed form, with
    and without symmetry breaking. *)

(* --- Tables 2 and 4: six models × split ratios ----------------------- *)

type perf_row = {
  p_ratio : int * int;
  p_model : Model.kind;
  p_metrics : Metrics.confusion;
}

val model_performance : config -> prop:Props.t -> symmetry:bool -> perf_row list
(** Table 2 with [symmetry:true], Table 4 with [symmetry:false]. *)

(* --- Tables 3, 5, 6, 7: decision tree, test set vs entire space ------ *)

type dt_row = {
  d_prop : string;
  d_scope : int;
  d_test : Metrics.confusion;
  d_phi : Accmc.counts option;  (** [None] = timeout ("-" in the paper) *)
}

val dt_generalization :
  config -> data_symmetry:bool -> eval_symmetry:bool -> dt_row list
(** Table 3: [true true]; Table 5: [false false]; Table 6:
    [true false]; Table 7: [false true]. *)

(* --- Table 8: differences between two decision trees ----------------- *)

type diff_row = {
  f_prop : string;
  f_scope : int;
  f_counts : Diffmc.counts option;
  f_diff : float option;  (** percentage, as in the paper's Diff column *)
}

val tree_differences : config -> diff_row list
(** Table 8: DiffMC between trees trained under different
    hyperparameters, per property. *)

(* --- Table 9: class ratios, traditional vs MCML precision ------------ *)

type t9_row = {
  r_ratio : int * int;  (** valid:invalid in the training set *)
  r_traditional : float;
  r_mcml : float;
}

val class_ratio_study : config -> prop:Props.t -> t9_row list
(** Table 9: traditional vs MCML precision as the training class
    ratio varies. *)

(* --- Ablations (design-choice studies beyond the paper's tables) ----- *)

type sym_row = {
  s_prop : string;
  s_scope : int;
  s_none : int;  (** solutions with no symmetry breaking *)
  s_partial : int;  (** after the Alloy-style partial lex-leader predicate *)
  s_full : int;  (** orbit count = full symmetry breaking *)
}

val symmetry_ablation : config -> sym_row list
(** Quantifies §5.2.2's point that Alloy's default scheme removes
    many-but-not-all symmetries: per property, the solution count with
    no breaking, with the partial lex-leader predicate, and the true
    orbit count (full breaking via canonicalization). *)
