(** Gradient-boosted trees with logistic loss (binomial deviance),
    depth-3 regression trees, shrinkage 0.1 — scikit-learn's default
    [GradientBoostingClassifier] configuration. *)

type t

type params = { n_estimators : int }

val default_params : params
(** 100 stages. *)

val train : ?params:params -> Dataset.t -> t
val predict : t -> bool array -> bool
(** Sign of {!decision_value}. *)

val decision_value : t -> bool array -> float
(** Raw additive score (log-odds scale). *)
