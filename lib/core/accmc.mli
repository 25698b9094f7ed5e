(** AccMC: quantifying a decision tree's performance over the entire
    bounded input space by model counting (paper §4, equations 1–4).

    Given ground truth [ϕ] (and its negation, both as CNFs over the
    primary variables) and a trained tree [d],

    {ul
    {- [tp = mc(ϕ ∧ paths_true(d))]}
    {- [fp = mc(¬ϕ ∧ paths_true(d))]}
    {- [tn = mc(¬ϕ ∧ paths_false(d))]}
    {- [fn = mc(ϕ ∧ paths_false(d))]}}

    all counted over the primary variables.  Accuracy, precision,
    recall and F1 are then derived exactly as from a test-set
    confusion — but with respect to all [2^n] inputs.

    Two evaluations are provided.  {!counts} is the paper's route: the
    tree's sides become CNFs ({!Tree2cnf}) conjoined with the ground
    truth and counted.  {!conditioned} never builds those conjunctions:
    a tree side is a disjoint union of path terms, so each count is a
    sum of one compiled form conditioned on each path
    ({!Mcml_counting.Exact.Dnnf.condition}), and one side of the tree
    is enough: the other is the form's total minus it.  With an exact
    counter,
    both use that [ϕ] is a total function of the primary variables:
    within the evaluation universe [U] (all of [2^n], or the
    symmetry-broken subspace), [mc(¬ϕ ∧ τ) = mc(U ∧ τ) − mc(ϕ ∧ τ)],
    so no negated ground truth is counted.  The approximate and brute
    backends take the four counts literally (a difference of two
    estimates would compound error; brute force stays the literal
    reduction's reference). *)

open Mcml_logic
open Mcml_ml
open Mcml_counting

type counts = {
  tp : Bignat.t;
  fp : Bignat.t;
  tn : Bignat.t;
  fn : Bignat.t;
  time : float;
      (** total wall-clock of the evaluation, as in Table 3: the
          compiles this query ran are included, a kept form's are not *)
}

val counts :
  ?budget:float ->
  ?pool:Mcml_exec.Pool.t ->
  ?cache:Counter.cache ->
  backend:Counter.backend ->
  phi:Cnf.t ->
  not_phi:Cnf.t ->
  space:Cnf.t ->
  nprimary:int ->
  Decision_tree.t ->
  counts option
(** [phi]/[not_phi] are the ground truth and its negation (both
    already conjoined with the symmetry-breaking predicate when
    evaluating the symmetry-constrained universe); [space] is that
    universe itself (the symmetry predicate alone, or an empty CNF for
    the full space).  The exact backend counts [phi] and [space]
    conjoined with each side and subtracts; the approximate and brute
    backends count [phi] and [not_phi] with each side.  [None] if any
    counting call times out (the paper reports "-" for the whole row in
    that case).

    With [pool], the four counts run as one parallel batch and are
    recombined in a fixed order, so results are identical to the
    sequential path (which is taken verbatim, including its
    short-circuit on the first timeout, when [pool] is absent).
    [cache] memoizes each (backend, CNF) count outcome —
    see {!Counter.cache}. *)

val counts_sides :
  ?budget:float ->
  ?pool:Mcml_exec.Pool.t ->
  ?cache:Counter.cache ->
  backend:Counter.backend ->
  phi:Cnf.t ->
  not_phi:Cnf.t ->
  space:Cnf.t ->
  nprimary:int ->
  Cnf.t * Cnf.t ->
  counts option
(** Generalized entry point: the classifier is given as the
    [(true_side, false_side)] pair of
    count-preserving CNFs characterizing its [true] and [false] sides
    over the primary variables.  Decision trees use {!Tree2cnf};
    binarized neural networks use {!Bnn2cnf} — the generalization the
    paper's §2 describes. *)

val conditioned :
  phi:(unit -> Exact.Dnnf.t) ->
  space:(unit -> Exact.Dnnf.t) ->
  nprimary:int ->
  Decision_tree.t ->
  counts option
(** Exact AccMC from compiled forms: [phi] yields the ground truth
    (conjoined with the symmetry predicate when evaluating the
    symmetry-constrained universe) and [space] the universe itself,
    each compiled or kept from an earlier query.  [space] is forced
    first.  Only the side of the tree with fewer paths is conditioned,
    and the other side is the form's total minus it, because a tree's
    two sides partition the space: [fn = |ϕ| − tp] and
    [U_false = |U| − U_true].  [fp]/[tn] are the universe's sides minus
    [tp]/[fn].  [None] if either thunk raises
    {!Mcml_counting.Exact.Timeout}.  [time] covers the thunks, so it
    includes a compile only when this query ran it. *)

val confusion : counts -> Metrics.confusion
(** Float view for metric derivation (exact for counts below [2^53],
    monotone beyond). *)

val check_total : counts -> nprimary:int -> bool
(** Sanity invariant: the four counts sum to at most the size of the
    full input space (equality on the unconstrained universe with an
    exact backend); used by tests. *)
