(** Unified classifier interface over the study's six model families
    (paper §5: DT, RFT, ABT, GBDT, SVM, MLP). *)

type kind = DT | RFT | ABT | GBDT | SVM | MLP

val kinds : kind list
(** In the paper's table order: DT, RFT, GBDT, ABT, SVM, MLP. *)

val name_of : kind -> string
val kind_of_name : string -> kind option
(** Parse a model-kind name ([name_of] inverse, case-sensitive). *)

type sizes = {
  rft_trees : int;
  abt_estimators : int;
  gbdt_estimators : int;
  mlp_epochs : int;
  svm_epochs : int;
}

val default_sizes : sizes
(** scikit-learn-like defaults (100/50/100 estimators). *)

val fast_sizes : sizes
(** Scaled-down ensembles for quick experiment runs (documented in
    EXPERIMENTS.md). *)

type t = {
  kind : kind;
  predict : bool array -> bool;
  tree : Decision_tree.t option;
      (** the underlying tree when [kind = DT] — MCML's counting
          metrics need its paths *)
}

val train : ?sizes:sizes -> seed:int -> kind -> Dataset.t -> t
(** Train a model of the given kind; [sizes] scales the ensemble /
    network hyperparameters ({!fast_sizes} or {!paper_sizes}). *)

val train_tree : ?params:Decision_tree.params -> seed:int -> Dataset.t -> t
(** A DT with explicit tree hyperparameters (used by the DiffMC
    experiment, which compares trees trained with different
    hyperparameters). *)

val evaluate : t -> Dataset.t -> Metrics.confusion
(** Traditional test-set confusion.  Traced as an [ml.evaluate] span
    with attributes [model] and [samples]. *)
