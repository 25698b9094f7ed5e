(** Approximate projected model counting with XOR hashing (the
    ApproxMC stand-in).

    Follows the ApproxMC2 scheme: partition the projected solution
    space with [m] random parity constraints over the sampling set,
    count the surviving solutions up to a pivot with a bounded SAT
    enumeration, and search for the [m] at which the cell count falls
    below the pivot; the estimate is [cell_count * 2^m].  The median of
    [t] independent rounds gives the usual
    [(1+ε)]-approximation-with-probability-[1-δ] guarantee.

    All randomness is drawn from a seeded SplitMix64 stream created
    per call from [config.seed]: each median round draws its full pool
    of [n] parity constraints up-front (a query for [m] constraints
    uses the pool's first [m]), so counts are reproducible and, in
    particular, independent of how calls interleave across domains and
    of which [m] values the galloping search happens to probe.

    The search ({!search}) is separate from the cell counter.  The one
    {!count} supplies keeps {e one persistent solver} per round: the
    pool's XORs sit behind activation literals toggled per query via
    [Solver.solve ~assumptions], per-cell blocking clauses are guarded
    so they retire when the cell changes, learnt clauses survive the
    whole search, and every model found is replayed into later cells it
    lies in.  Because a cell count is the cardinality of a set of
    projected assignments, any cell counter meeting {!search}'s
    contract yields the same estimate under the same seed; the test
    suite asserts that against reference cells that conjoin the XOR
    prefix as CNF and count it with the exact counter or by brute
    force.

    {b Thread safety.}  Each [count] call owns its solvers, RNG, and
    search state; concurrent calls from different domains do not
    interact.  Deadlines use the monotonic clock. *)

open Mcml_logic

type config = {
  epsilon : float;  (** tolerance; pivot = 2⌈4.92 (1 + 1/ε)²⌉ *)
  delta : float;  (** failure probability; drives the round count *)
  seed : int;
  max_rounds : int option;
      (** override the δ-derived number of medians (speed knob) *)
  max_conflicts : int;
      (** per-SAT-query conflict budget, 0 = unlimited; exhaustion
          raises {!Inconclusive} instead of silently undercounting *)
}

val default : config
(** ε = 0.8, δ = 0.2, seed 1, rounds as dictated by δ, unlimited
    conflicts. *)

exception Timeout

exception Inconclusive
(** A bounded SAT query returned [Unknown] (per-query [max_conflicts]
    exhausted), so no sound cell count exists.  Never raised with the
    default unlimited conflict budget. *)

val count : ?budget:float -> ?config:config -> Cnf.t -> Bignat.t
(** [count cnf] estimates the projected model count.

    @param budget wall-clock limit in seconds.
    @raise Timeout when the budget is exhausted.
    @raise Inconclusive when a query exhausts [config.max_conflicts]. *)

val count_opt : ?budget:float -> ?config:config -> Cnf.t -> Bignat.t option
(** [None] on {!Timeout}; {!Inconclusive} still escapes. *)

val pivot : config -> int
(** The cell-size threshold 2⌈4.92 (1 + 1/ε)²⌉ (50 at ε = 0.8). *)

val search :
  config -> proj:int array -> cells:((int list * bool) array -> int -> int) -> Bignat.t
(** [search config ~proj ~cells] runs the ApproxMC search over the
    sampling set [proj] and returns the estimate {!count} would.

    A pool is an array of parity constraints [(vars, rhs)], each
    meaning [x1 xor ... xor xk = rhs] over [vars ⊆ proj].  [cells pool]
    is applied once per median round, and the result is then queried
    for several [m]; [cells pool m] must return
    min(|projected models of F ∧ the first [m] pool XORs|, pivot + 1)
    for the formula [F] being counted.  The exactness probe, made
    first, is [cells [||] 0]: if it is at most the pivot it is returned
    as the exact count and no pool is drawn. *)
