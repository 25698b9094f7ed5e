(** End-to-end data pipeline: property → bounded-exhaustive positives,
    random rejection-sampled negatives, balanced dataset — the
    "Generation of positive and negative samples" procedure of §5.

    {b Determinism.}  All randomness (negative sampling, dataset
    shuffling) is drawn from SplitMix streams created locally from
    [data_config.seed]; no global RNG is consulted.  Generation for
    different properties may therefore run on different domains and
    still produce exactly the datasets of a sequential run. *)

open Mcml_logic
open Mcml_ml
open Mcml_counting

type data_config = {
  scope : int;
  symmetry : bool;  (** apply partial symmetry breaking to the positives *)
  max_positives : int;
      (** enumeration cap (the paper enumerates exhaustively; the cap
          keeps scaled-down runs fast and is recorded in the result) *)
  seed : int;
}

type generated = {
  dataset : Dataset.t;  (** balanced, shuffled *)
  num_positive_solutions : int;  (** positives found before balancing *)
  positives_complete : bool;  (** [false] iff the cap interrupted enumeration *)
  scope : int;
  symmetry : bool;
}

exception Unbalanceable of string
(** The property has no solutions at the scope, or too few
    non-solutions to pair one with each positive: no balanced dataset
    exists.  The message names the property and scope.  Bad input, not
    a bug: the CLI reports it and exits 2, [serve] answers
    [bad_request]. *)

val generate : Mcml_props.Props.t -> data_config -> generated
(** Positives: all solutions of the property's predicate at the scope
    (up to the cap, a uniform sample otherwise).  Negatives:
    uniformly random instances filtered by the property's direct
    checker (the Alloy-Evaluator fast path), deduplicated, one per
    positive.
    @raise Unbalanceable when no balanced dataset exists. *)

val ground_truth :
  Mcml_props.Props.t -> scope:int -> symmetry:bool -> Cnf.t * Cnf.t
(** [(ϕ, ¬ϕ)] as CNFs over the primary variables; when [symmetry],
    both are conjoined with the lex-leader predicate (the
    symmetry-constrained evaluation universe of Tables 3 and 7). *)

val accmc :
  ?budget:float ->
  ?pool:Mcml_exec.Pool.t ->
  ?cache:Counter.cache ->
  backend:Counter.backend ->
  prop:Mcml_props.Props.t ->
  scope:int ->
  eval_symmetry:bool ->
  Decision_tree.t ->
  Accmc.counts option
(** AccMC of [tree] against [prop] over the evaluation universe.  With
    the exact backend it conditions compiled forms on the tree's paths
    ({!Accmc.conditioned}): [ϕ] (conjoined with the symmetry predicate
    when [eval_symmetry]) and the universe
    ({!Mcml_alloy.Analyzer.space_cnf}).  Each form is translated
    and compiled once per process, per (property, scope, symmetry) and
    per (scope, symmetry) respectively, and kept unless its compile
    times out.  Concurrent first queries of one form wait for a single
    compile; other forms hit or compile meanwhile.  [budget] bounds a
    compile this query runs, so a kept form answers under any budget.
    [pool] and [cache] go unused: no ¬ϕ is translated, no Tree2CNF
    side is built.  The approximate and brute backends take
    {!Accmc.counts}. *)

val train_fraction_of_ratio : int * int -> float
(** [(75, 25)] ↦ [0.75] etc. *)

val train_eval :
  ?train_fraction:float -> seed:int -> Model.kind -> Dataset.t -> Model.t * Dataset.t * Dataset.t
(** The model of [mcml train-eval], [mcml stats] and served [accmc]
    requests: the data split with [seed + 5] at [train_fraction]
    (default [0.75], the 75:25 split), then a {!Model.fast_sizes} model
    trained with [seed] on the first part.  Returns the model, the
    training set and the held-out test set. *)

val diffmc_trees : seed:int -> Dataset.t -> Decision_tree.t * Decision_tree.t
(** The tree pair DiffMC compares in Table 8, [mcml diff] and served
    [diffmc] requests: both trained on one half of the data (split with
    [seed + 29]), the first with default hyperparameters and
    [seed + 1], the second at most 4 deep with at least 8 samples per
    split and [seed + 2]. *)
