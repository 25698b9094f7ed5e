(** Brute-force projected model counting by exhaustive enumeration.

    Reference implementation used to validate the exact and approximate
    counters in tests; practical only up to roughly 20 projection
    variables.  It shares no code with {!Exact}: each assignment is
    decided by the CDCL solver, not by the compiler. *)

open Mcml_logic

val count : Cnf.t -> Bignat.t
(** [count cnf] enumerates every assignment of the projection
    variables and counts those that extend to a model, deciding each
    with one {!Mcml_sat.Solver} under the assignment as assumptions.
    With telemetry enabled every decision is a [solver.solve] span.

    @raise Invalid_argument when the projection set exceeds 24
    variables. *)
