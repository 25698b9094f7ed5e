(** Tree2CNF: auxiliary-variable-free translation of decision-tree
    logic into CNF (paper §4).

    A decision tree with paths [p1..pt] predicting [true] and
    [q1..qf] predicting [false] classifies an input as [true] exactly
    when the input satisfies [∨ψ(pi)] — equivalently, when it
    satisfies {e no} [ψ(qj)] (every input follows exactly one path).
    The [true]-side logic in CNF is therefore [∧j ¬ψ(qj)], where each
    [¬ψ(qj)] is already a clause (the negation of a conjunction of
    literals).  The translation introduces no auxiliary variables, is
    linear in the tree size ([O(n·k)] for [n] leaves and [k]
    features), and preserves model counts — the properties the
    counting metrics rely on. *)

open Mcml_logic
open Mcml_ml

val lit_of_condition : int * bool -> Lit.t
(** The literal of a branch condition [(feature, value)]: feature [i]
    is variable [i+1]. *)

val cnf_of_label : nfeatures:int -> Decision_tree.t -> label:bool -> Cnf.t
(** [cnf_of_label ~nfeatures tree ~label] characterizes the inputs the
    tree classifies as [label], as a CNF over variables
    [1..nfeatures] (feature [i] ↔ variable [i+1]) whose projection is
    the full variable set. *)

val formula_of_label : nfeatures:int -> Decision_tree.t -> label:bool -> Formula.t
(** The same set as a DNF-of-paths formula, [∨ ψ(path)] over the paths
    predicting [label] (reference semantics for tests). *)

val clause_count : Decision_tree.t -> label:bool -> int
(** Number of clauses the translation will emit (= paths with the
    opposite label). *)
