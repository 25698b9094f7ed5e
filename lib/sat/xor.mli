(** CNF encoding of XOR (parity) constraints.

    The approximate model counter partitions the solution space with
    random parity constraints over the sampling set.  Long XORs are cut
    into short chunks chained through fresh auxiliary variables; each
    chunk is encoded by the [2{^k-1}] clauses that forbid the
    wrong-parity assignments.  Auxiliaries are functionally determined,
    so the encoding preserves projected model counts. *)

open Mcml_logic

val clauses_of : fresh:(unit -> int) -> vars:int list -> rhs:bool -> Lit.t list list
(** [clauses_of ~fresh ~vars ~rhs] encodes [x1 xor ... xor xk = rhs],
    calling [fresh] for chain variables.  An empty [vars] with
    [rhs = true] yields the empty clause (unsatisfiable). *)

val add_guarded : Solver.t -> vars:int list -> rhs:bool -> int
(** Add the clauses of {!clauses_of} to a solver, each carrying the
    negation of a fresh {e activation variable} [g] (returned).  The
    parity constraint is active only under the assumption [g]
    ([Lit.pos g] in [Solver.solve ~assumptions]) and inert under
    [Lit.neg_of_var g]; add the unit clause [¬g] to retire it
    permanently.  This is how the incremental approximate counter
    toggles XORs without rebuilding the solver.  An empty [vars] with
    [rhs = true] yields the unit clause [¬g], i.e. the constraint is
    unsatisfiable exactly when activated. *)
