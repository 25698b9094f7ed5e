(** Exact projected model counting by knowledge compilation.

    Counts the models of a CNF projected onto its projection set: the
    number of assignments of the projection variables that extend to at
    least one model of the full formula.  The engine follows the
    sharpSAT / Ganak line of exact counters — the search is the
    bottom-up construction of a {e decision-DNNF} trace:

    {ul
    {- {b Decision nodes} come from branching on a projection variable,
       chosen VSADS-style: conflict-driven activity blended with the
       variable's occurrence count in the current component, so
       branching steers both toward contradiction (pruning) and toward
       disconnection (decomposition).}
    {- {b Decomposition (AND) nodes} come from splitting the residual
       clause set into variable-disjoint connected components, whose
       counts multiply.  Components are processed smallest-first so
       cheap cache hits (and cheap refutations) land before expensive
       subtrees are explored.}
    {- {b Cached leaves}: each component is keyed by a packed integer
       signature — one word [(clause id << 31) | falsified-literal
       mask] per short clause — that identifies the residual
       subformula exactly.  A cache hit reuses the component's count
       (and, when tracing, its node), turning the trace into a DAG.}
    {- Components without projection variables only need a SAT
       decision (a [true]/[false] leaf); projection variables that
       stop occurring contribute a [2{^k}] factor ({!Dnnf.Free}
       nodes).}}

    Before compilation the CNF is (optionally but by default) rewritten
    by {!Mcml_sat.Inprocess.simplify} — subsumption, self-subsuming
    resolution, and bounded elimination of non-projected variables —
    which preserves the projected count exactly (see the soundness
    argument in DESIGN.md §11).

    The counter is exact and deterministic; [budget] bounds the wall
    clock for callers that need the paper's timeout discipline.  The
    deadline is checked inside unit propagation and at every decision
    node, so a single huge component cannot blow past a served
    [deadline_ms].  Deadlines use the monotonic clock, so a system
    clock step cannot spuriously expire (or extend) a budget.

    While telemetry is enabled, each call (of {!count} or
    {!Dnnf.compile}, told apart by the span's [mode] attribute) emits a
    [count.exact] span and feeds [count.exact.calls],
    [count.exact.dnnf_nodes],
    [count.exact.comp_cache_hits] / [comp_cache_misses],
    [count.exact.timeouts], and the [count.exact.branch_depth]
    histogram (maximum decision depth per call).

    {b Thread safety.}  Every call allocates its own solver state and
    component cache; concurrent calls from different domains do not
    interact. *)

open Mcml_logic

exception Timeout

val count : ?budget:float -> ?inprocess:bool -> ?cache:bool -> Cnf.t -> Bignat.t
(** [count cnf] is the projected model count.

    @param budget wall-clock limit in seconds (default: none).
    @param inprocess run {!Mcml_sat.Inprocess.simplify} first
           (default [true]).  The result is identical either way; the
           knob exists for tests and diagnostics.
    @param cache enable the component cache (default [true]).  The
           result is identical either way; disabling only changes how
           much work is repeated.
    @raise Timeout when the budget is exhausted. *)

val count_opt :
  ?budget:float -> ?inprocess:bool -> ?cache:bool -> Cnf.t -> Bignat.t option
(** Like {!count}, but [None] on timeout. *)

(** The decision-DNNF trace of a compilation run.  The hot counting
    path ({!count}) only keeps node {e counts}; {!Dnnf.compile}
    additionally retains the nodes together with the literals each
    branch fixed, which makes the trace enumerable ({!Dnnf.iter_models})
    as well as countable.  A trace is stored as one flat int array, and
    {!Dnnf.node} decodes a node on demand. *)
module Dnnf : sig
  type node =
    | True  (** the empty conjunction: one model (of no variables) *)
    | False  (** an unsatisfiable residual: zero models *)
    | Decision of {
        var : int;
        hi : int;
        lo : int;
        hi_fixed : Lit.t array;
        lo_fixed : Lit.t array;
      }
        (** branch on projection variable [var]: count(hi) + count(lo),
            where [hi] is the [var = true] child.  [hi_fixed] /
            [lo_fixed] are the projection literals the branch fixed:
            the decision literal first, then those unit propagation
            forced (empty when the branch is [False]). *)
    | Decomp of int array
        (** variable-disjoint conjunction: counts multiply *)
    | Free of { vars : int array; child : int }
        (** the projection variables [vars] vanished unconstrained:
            count(child) × [2{^|vars|}] *)

  type t
  (** A trace: a DAG of nodes (ids index into the node table; node [0]
      is the shared [False] leaf, node [1] the shared [True] leaf),
      plus a distinguished root and the projected model count.  A
      trace is immutable apart from a conditioning scratch that
      {!condition} reuses; it may be shared across domains. *)

  val compile : ?budget:float -> ?inprocess:bool -> Cnf.t -> t
  (** Compile a CNF, retaining the full trace.  Inprocessing keeps the
      projected model set, not just its count, so the trace answers
      {!condition} and {!iter_models} for the CNF as given.
      @raise Timeout when the budget is exhausted. *)

  val total : t -> Bignat.t
  (** The projected model count, as the compiling run counted it:
      equal to {!count} on the same CNF. *)

  val root : t -> int
  (** Root node id. *)

  val size : t -> int
  (** Number of nodes in the trace (leaves included). *)

  val node : t -> int -> node
  (** [node t i] is node [i]; [0 <= i < size t]. *)

  val condition : t -> Lit.t array list -> Bignat.t
  (** [condition t terms] is the sum over [terms] of the number of
      projected models that agree with each conjunction: for one term,
      the count of the compiled CNF conjoined with the term's unit
      clauses.  Each term takes one memoized pass.  The root's forced
      literals and a [Decision] branch's fixed literals must agree with
      the term (a branch that contradicts it contributes 0); a [Free]
      node doubles only for the variables the term leaves open.  A
      variable repeated in a term counts once, and opposite literals of
      one variable give 0.  The sum is a count only when the terms are
      pairwise disjoint, as the paths of a decision tree are.  The
      pass's memo is a node-sized scratch kept with [t] and cleared
      after the call; a concurrent call makes its own.
      @raise Invalid_argument if a term mentions a variable outside
      the projection. *)

  val iter_models : ?limit:int -> t -> (bool array -> unit) -> unit
  (** [iter_models t f] calls [f] once on each projected model — a
      fresh array over the projection variables, in the order of
      {!Mcml_logic.Cnf.projection_vars} — stopping after [limit]
      (default: unlimited).  The walk is depth-first: [hi] before
      [lo], the children of a [Decomp] as a nested product, and the
      variables of a [Free] node over all [2{^k}] values ([true]
      first).  It makes no SAT calls; its cost is proportional to its
      output. *)

  val sample_models :
    rng:Splitmix.t -> limit:int -> t -> (bool array -> unit) -> unit
  (** [sample_models ~rng ~limit t f] calls [f] on [min limit
      (total t)] distinct projected models drawn uniformly at
      random without replacement, in draw order.  Each draw descends
      once from the root, taking [hi] with probability
      count([hi]) / count(node); duplicates are redrawn.  The sample
      depends only on the trace and the state of [rng]. *)
end
