(** Metamorphic validation of model counters.

    The MCML authors' companion work (TestMC, cited in the paper's
    §2/§5) tests model counters with differential and metamorphic
    relations.  This module implements the classic relations as
    checkable properties of a counting function, used by the test suite
    against both the exact and the brute-force backends:

    {ul
    {- Shannon expansion: [mc(F) = mc(F ∧ x) + mc(F ∧ ¬x)] for a
       projected variable [x];}
    {- variable renaming invariance: permuting variable names leaves
       the count unchanged;}
    {- disjoint composition: for variable-disjoint [F] and [G],
       [mc(F ∧ G) = mc(F) · mc(G)];}
    {- monotonicity: adding a clause never increases the count;}
    {- complement: [mc(F) + mc_P(¬F) = 2^|P|] when [F] ranges over
       exactly its projection set (checked via a fresh full-space
       formula pair).}} *)

open Mcml_logic

type counter = Cnf.t -> Bignat.t

val shannon : counter -> Cnf.t -> var:int -> bool
(** [shannon mc f ~var] checks the expansion on a projection variable.
    @raise Invalid_argument if [var] is not in the projection set. *)

val renaming_invariant : counter -> Cnf.t -> perm:int array -> bool
(** [perm] maps old variable [v] to [perm.(v)] (index 0 unused); must
    be a permutation of [1..nvars]. *)

val disjoint_product : counter -> Cnf.t -> Cnf.t -> bool
(** The two formulas' variable universes are made disjoint by shifting
    the second above the first. *)

val clause_monotone : counter -> Cnf.t -> extra:Lit.t array -> bool

val check_all : ?seed:int -> ?rounds:int -> counter -> Cnf.t -> bool
(** Run every applicable relation with randomly drawn parameters;
    [true] iff all hold. *)
