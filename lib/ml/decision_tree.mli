(** CART decision trees over boolean features.

    This is the model class MCML's counting metrics are defined on: a
    trained tree is a set of root-to-leaf paths; each path is a
    conjunction of literals over input variables ([feature i] true or
    false), and {!paths} exposes exactly that view for the Tree2CNF
    translation.

    Training is standard CART with Gini impurity, optional sample
    weights (for boosting) and optional per-split feature subsampling
    (for random forests).  The same grower fits the regression trees
    of gradient boosting ({!regression_tree}). *)

open Mcml_logic

type 'a tree = Leaf of 'a | Split of { feature : int; if_false : 'a tree; if_true : 'a tree }
(** [if_true] is taken when [feature] is set. *)

type node = bool tree

type t = { nfeatures : int; root : node }

type params = {
  max_depth : int option;  (** [None] = unbounded *)
  min_samples_split : int;  (** don't split nodes smaller than this *)
  max_features : int option;
      (** per-split random feature subsample size; [None] = all *)
}

val default_params : params
(** unbounded depth, [min_samples_split = 2], all features —
    scikit-learn's out-of-the-box [DecisionTreeClassifier]. *)

val train :
  ?params:params ->
  ?weights:float array ->
  ?rng:Splitmix.t ->
  Dataset.t ->
  t
(** [train ds] grows a tree.  [weights] (parallel to [ds.samples])
    default to 1; [rng] is only consulted when [max_features] is set.
    An empty dataset yields a single [Leaf false]. *)

val regression_tree : max_depth:int -> Dataset.t -> targets:float array -> float tree
(** Fit real-valued [targets] (parallel to the dataset's samples):
    squared-error splits, mean leaves, a split only where it lowers
    the squared error.  @raise Invalid_argument on a length mismatch. *)

val leaf : 'a tree -> bool array -> 'a
(** The leaf value the feature vector routes to. *)

val predict : t -> bool array -> bool

val paths : t -> ((int * bool) list * bool) list
(** Root-to-leaf paths: each is the list of [(feature, value)] branch
    conditions followed, paired with the leaf's label. *)

val num_leaves : t -> int
val depth : t -> int
(** Size measures of the learned tree. *)

val eval_all : t -> scope_bits:int -> (bool array -> bool) -> Metrics.confusion
(** Exhaustively evaluate the tree against an oracle over all
    [2^scope_bits] inputs (tests / tiny scopes only). *)

val pp : Format.formatter -> t -> unit
