(** A CDCL SAT solver.

    This is the SAT backend that stands in for MiniSat in the paper's
    toolchain: conflict-driven clause learning with two-watched-literal
    propagation, first-UIP learning, exponential VSIDS variable
    activities, phase saving, Luby restarts and activity-based deletion
    of learnt clauses.  The solver is used by the approximate model
    counter for bounded counting under XOR hash constraints (positive
    enumeration walks the exact counter's compiled trace instead; the
    test suite keeps a blocking-clause loop over this solver as its
    reference).

    {b Thread safety.}  A solver value is mutable single-owner state:
    it must be used from one domain at a time.  There is no global
    state, so distinct solvers run freely on distinct domains (how the
    parallel experiment driver uses them). *)

open Mcml_logic

type t

type result = Sat | Unsat | Unknown  (** [Unknown]: conflict budget exhausted *)

val create : ?nvars:int -> unit -> t

val new_var : t -> int
(** Allocate a fresh variable (variables are [1..nvars]). *)

val nvars : t -> int

val add_clause : t -> Lit.t list -> unit
(** Add a problem clause.  May be called between [solve] calls (the
    solver backtracks to the root level first); adding an empty clause
    (or a clause falsified at the root) makes the instance trivially
    unsatisfiable. *)

val solve : ?max_conflicts:int -> ?assumptions:Lit.t list -> t -> result
(** Solve the current clause database, optionally under [assumptions]:
    literals forced true for {e this call only}.  Assumptions are
    enqueued as pseudo-decisions at levels [1..k] (MiniSat-style), so
    they interact correctly with restarts (which re-replay them), phase
    saving and learnt-clause deletion — clauses learnt while an
    assumption holds never mention the assumption level incorrectly and
    stay valid once it is dropped, which is what makes one solver
    reusable across many assumption sets.

    [max_conflicts] is a {e per-call} conflict budget (0 = unlimited);
    when exhausted the call returns [Unknown] with the trail reset.

    If the result is [Unsat] and assumptions were passed, {!unsat_core}
    names a subset of them that the clause database refutes.  Passing
    a literal over a variable not in [1..nvars] raises [Invalid_argument]. *)

val parity_max_vars : int
(** Upper bound on the number of variables (and rows) the native parity
    subsystem accepts — one bit per variable in an OCaml [int]. *)

val parity_reset : t -> vars:int array -> unit
(** Declare the variable order of the native parity subsystem: bit [i]
    of every row mask refers to [vars.(i)].  Clears any existing rows.
    Raises [Invalid_argument] beyond [parity_max_vars] variables. *)

val parity_add : t -> mask:int -> rhs:bool -> guard:int -> unit
(** Add the parity row [xor of (vars selected by mask) = rhs], active
    only while the [guard] variable is assigned true ([guard = 0] means
    always active).  Rows are enforced by Gauss–Jordan elimination at
    every propagation fixpoint — full arc consistency over the whole
    active system, with no CNF encoding and no auxiliary variables.
    Reason clauses synthesized from rows carry the negated guards of
    every row that went into the derivation, so learnt clauses remain
    sound when a different row subset is active in a later [solve]. *)

val unsat_core : t -> Lit.t list
(** After [solve ~assumptions] returned [Unsat]: a subset of the passed
    assumptions (in the passed polarity) whose conjunction is
    inconsistent with the clause database — the final-conflict core.
    [[]] if the database is unsatisfiable on its own (root-level
    conflict, [ok] false) or if the last solve did not return [Unsat]. *)

val model_value : t -> int -> bool
(** [model_value s v] is the value of variable [v] in the last model.
    Only meaningful right after [solve] returned [Sat]. *)

val model : t -> bool array
(** Snapshot of the full model, indexed by variable (slot 0 unused). *)

val num_conflicts : t -> int
val num_decisions : t -> int
val num_propagations : t -> int
(** Search statistics accumulated across all [solve] calls on this
    solver. *)

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  learnts : int;  (** current learnt-clause DB size *)
  clauses : int;  (** problem clauses *)
}

val stats : t -> stats
(** Lifetime work counters of this solver instance (monotone except
    [learnts]/[clauses], which are current sizes).  Each [solve] call
    additionally emits the per-call deltas as a [solver.solve] span
    when telemetry is enabled ({!Mcml_obs.Obs.enabled}). *)

val of_cnf : Cnf.t -> t
(** Fresh solver preloaded with the clauses of a CNF. *)
