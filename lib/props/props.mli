(** The 16 relational properties of the study (paper Table 1).

    Each property carries: its Alloy predicate (all properties live in
    one shared spec over [sig S { r: set S }]), a hand-written direct
    checker over adjacency matrices (the fast path used for negative
    sampling, mirroring the paper's use of the Alloy Evaluator), and —
    where one exists — the closed-form or table-driven exact count of
    positive instances at scope [n] {e without} symmetry breaking.
    The closed forms double as ground-truth oracles for the
    enumeration, translation, and counting substrates. *)

open Mcml_logic

type t = {
  name : string;  (** canonical name as in Table 1, e.g. "PartialOrder" *)
  pred : string;  (** predicate name inside {!spec_source} *)
  description : string;
  check : scope:int -> bool array -> bool;
      (** direct semantics on a row-major adjacency matrix *)
  closed_form : int -> Bignat.t option;
      (** exact positive count at scope [n], no symmetry breaking;
          [None] when unknown *)
  paper_scope : int;  (** scope used by the paper (symmetry-broken setting) *)
  paper_scope_nosym : int;  (** scope used by the paper without symmetry *)
}

val spec_source : string
(** Alloy source declaring [sig S { r: set S }] and all 16 predicates. *)

val spec : unit -> Mcml_alloy.Ast.spec
(** Parsed and checked shared spec (cached). *)

val all : t list
(** The 16 properties in the paper's (alphabetical) order. *)

val find : string -> t option
(** Case-insensitive lookup by name. *)

val find_exn : string -> t

val analyzer : scope:int -> Mcml_alloy.Analyzer.t
(** Analyzer over the shared spec at the given scope. *)

val select_scope : t -> symmetry:bool -> threshold:int -> max_scope:int -> int
(** Smallest scope (≤ [max_scope]) with at least [threshold] positive
    solutions — the paper's scope-selection rule (10 000 with symmetry
    breaking, 90 000 without; ours parameterizes the threshold).
    Each candidate scope is decided by an exact count — the closed
    form when there is one and no symmetry breaking, the d-DNNF
    counter ({!Mcml_counting.Exact.count}) otherwise — never by
    enumerating.  Returns [max_scope] when no smaller scope
    qualifies. *)
