(** The analyzer: bounded translation, solving, enumeration, counting.

    This module plays the role of the Alloy Analyzer in the paper's
    toolchain: it translates a predicate of a spec, with respect to an
    exact scope, into (a) a hash-consed propositional formula over the
    primary variables, (b) a CNF (via the count-preserving Tseitin
    transform) whose projection set is the primary variables, and it
    (c) enumerates all solutions off the compiled decision-DNNF
    ({!Mcml_counting.Exact.Dnnf}) and (d) counts them with a chosen
    model counter.  Symmetry breaking mirrors
    Alloy's default partial scheme and can be toggled, as the study
    requires. *)

open Mcml_logic

type t = private { spec : Ast.spec; scope : int }

val make : Ast.spec -> scope:int -> t
(** Checks the spec ({!Check.check_spec}) and fixes the scope.
    @raise Check.Error on an ill-formed spec. *)

val of_source : string -> scope:int -> t
(** Parse, check, and fix a scope in one step. *)

val nprimary : t -> int
(** Number of primary variables: [#fields * scope²]. *)

val state_space : t -> Bignat.t
(** [2^nprimary] — the size of the bounded input space. *)

val var_of : t -> field:string -> int -> int -> int
(** Primary variable of field entry [(i, j)]; fields are numbered in
    declaration order, entries row-major, variables from 1. *)

val formula : ?negate:bool -> ?symmetry:bool -> t -> pred:string -> Formula.t
(** Propositional semantics of the predicate at the scope.  [negate]
    negates the predicate; [symmetry] conjoins the partial lex-leader
    predicate (outside the negation, matching the paper's use of a
    symmetry-constrained evaluation universe).  Traced as an
    [alloy.translate] span with attribute [pred]. *)

val cnf : ?negate:bool -> ?symmetry:bool -> t -> pred:string -> Cnf.t
(** CNF of {!formula} with projection onto the primary variables. *)

val enumerate :
  ?symmetry:bool -> ?limit:int -> ?seed:int -> t -> pred:string -> Instance.t list * bool
(** Up to [limit] (default: all) solutions of the predicate — the
    positive samples of the study.  The boolean is [true] when the
    solution count is at most [limit]; then every solution is returned,
    in the depth-first order of {!Mcml_counting.Exact.Dnnf.iter_models}.
    Otherwise the [limit] solutions are a uniform sample without
    replacement ({!Mcml_counting.Exact.Dnnf.sample_models}) drawn from
    a SplitMix64 stream seeded with [seed] (default [0]).  Both orders
    are deterministic.  The CNF is compiled in full before the first
    solution comes out, so a small [limit] at a large scope still pays
    the whole compilation. *)

val evaluate : t -> pred:string -> Instance.t -> bool
(** The Alloy Evaluator: checks a concrete instance by constant
    propagation, no solving. *)

val count :
  ?negate:bool ->
  ?symmetry:bool ->
  ?budget:float ->
  ?cache:Mcml_counting.Counter.cache ->
  backend:Mcml_counting.Counter.backend ->
  t ->
  pred:string ->
  Mcml_counting.Counter.outcome option
(** Model count of the predicate over the bounded space.  [cache]
    memoizes the outcome by full (backend, CNF) content
    ({!Mcml_counting.Counter.cache}).

    {b Thread safety.}  An analyzer value is immutable; translation,
    enumeration, and counting build fresh per-call state, so one
    analyzer may be shared across domains. *)
