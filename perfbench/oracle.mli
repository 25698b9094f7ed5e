(** Independent reference answers for the benchmark's workloads.

    Every check returns the problems it found, one line each; an empty
    list means the output agrees with its reference.  The references
    avoid the code being measured wherever they can: closed forms from
    {!Mcml_props.Props}, exhaustive evaluation of [Props.check] and
    [Decision_tree.predict] over every input of a space of at most
    16 bits (scope 4), and arithmetic on a tree's paths.  Only
    symmetry-broken spaces above that size fall back to consistency
    between answers that must agree, or to an in-process exact count. *)

open Mcml_logic

val count_reference :
  Mcml_props.Props.t -> scope:int -> symmetry:bool -> negate:bool -> Bignat.t
(** The model count a [count] request must answer: the closed form (or
    [2^n] minus it when negated) without symmetry breaking; otherwise
    exhaustive enumeration up to 16 primary variables; otherwise the exact
    counter run in this process, which only checks consistency.
    Memoized per key. *)

val check_count :
  Mcml_props.Props.t ->
  scope:int ->
  symmetry:bool ->
  negate:bool ->
  Bignat.t ->
  string list
(** A served count against {!count_reference}. *)

val check_accmc :
  Mcml_props.Props.t ->
  scope:int ->
  eval_symmetry:bool ->
  Mcml_ml.Decision_tree.t ->
  Mcml.Accmc.counts ->
  string list
(** One AccMC answer.  Up to 16 primary variables: all four counts equal an
    exhaustive evaluation of the tree against [Props.check] over the
    universe.  Above it, on the full space: [tp + fp] equals the sum of
    [2^(n - |path|)] over the tree's true paths, [tp + fn] the closed
    form, and the four counts sum to [2^n].  Symmetry-broken answers
    above the limit are left to {!check_accmc_groups}. *)

val check_accmc_groups :
  ((string * int * bool) * Mcml.Accmc.counts) list -> string list
(** Answers keyed by (property, scope, symmetry-broken universe): every
    tree evaluated against one ground truth must see the same
    positives ([tp + fn]), and every answer over one universe (scope,
    symmetry) the same total. *)

(** {1 The paper's tables} *)

val check_table1 : epsilon:float -> Mcml.Experiments.t1_row -> string list
(** The exact count without symmetry breaking equals the closed form;
    the enumerated Alloy column equals the exact symmetry-broken count
    when enumeration completed; each approximate estimate lies within
    the [(1 + epsilon)] band of its exact count; no cell timed out. *)

val check_performance : Mcml.Experiments.perf_row list -> string list
(** Tables 2 and 4: the six models of one split ratio are evaluated on
    the same test set, so their confusion matrices have one total. *)

val check_dt : eval_symmetry:bool -> Mcml.Experiments.dt_row -> string list
(** Tables 3, 5, 6, 7: the row did not time out and passes
    [Accmc.check_total]; on the full space the four counts sum to [2^n]
    and [tp + fn] equals the closed form. *)

val check_diff : Mcml.Experiments.diff_row -> string list
(** Table 8: the row did not time out and its four counts sum to
    [2^n]. *)

val check_class_ratio : Mcml.Experiments.t9_row -> string list
(** Table 9: the MCML precision is a number in [0, 1] (NaN marks a
    timeout). *)
