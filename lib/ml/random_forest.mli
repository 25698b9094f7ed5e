(** Random forests: bagged CART trees with per-split feature
    subsampling (√k features), majority vote. *)

open Mcml_logic

type t

type params = { n_trees : int }

val default_params : params
(** 100 trees — scikit-learn's default (the experiment configs scale
    [n_trees] down for runtime).  Every tree grows to unbounded depth,
    as in scikit-learn. *)

val train : ?params:params -> rng:Splitmix.t -> Dataset.t -> t
val predict : t -> bool array -> bool
(** Majority vote of the trees. *)

val trees : t -> Decision_tree.t list
(** The underlying trees (e.g. for per-tree MCML analysis). *)
