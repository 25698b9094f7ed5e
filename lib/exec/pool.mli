(** Fixed-size domain pool with futures — the parallel runtime under
    the experiment driver.

    The paper's workload is embarrassingly parallel: 16 independent
    properties, each needing several independent model counts with a
    multi-thousand-second per-count budget.  This pool runs those as
    tasks on a fixed set of worker domains with a bounded work queue,
    and hands the caller a {!future} per task.

    {b Sequential identity.}  A pool created with [jobs <= 1] spawns
    no domains at all: {!submit} runs the thunk immediately on the
    calling domain and {!await} just reads the stored result.  Code
    written against the pool therefore behaves {e bit-identically} to
    the plain sequential code when [--jobs 1] (the default) — same
    evaluation order, same exceptions, same results.

    {b Determinism.}  {!map_list} returns results in input order
    regardless of completion order.  Combined with the determinism
    contracts of [Formula] (structural child ordering) and the
    explicit RNG threading in the pipeline, a [jobs = n] run produces
    bit-identical counts and tables to a [jobs = 1] run; only wall
    times differ.

    {b Nesting and deadlock freedom.}  Tasks may themselves submit
    tasks to the same pool.  Two mechanisms keep this deadlock-free:
    when the bounded queue is full, {!submit} runs the task inline on
    the caller ("caller-runs" overflow), and {!await} on a pending
    future {e helps} — it drains queued tasks instead of blocking
    while work is available.

    {b No timeouts here.}  A task, once submitted, runs to completion;
    bound its work by passing the per-count [budget] down to the
    counters (a served deadline clamps that budget).

    {b Thread safety.}  All operations may be called from any domain.
    Results cross domains, so thunks must not rely on domain-local
    state. *)

type t
(** A pool.  [jobs <= 1] means "no worker domains, run inline". *)

type 'a future

val create : ?queue_bound:int -> jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs] worker domains ([jobs <= 1]:
    none).  [queue_bound] caps the pending-task queue (default
    [4 * jobs]); a full queue makes {!submit} run the task inline
    rather than block.  Telemetry: gauges [exec.pool.jobs] and
    [exec.pool.queue_depth], counters [exec.tasks.*], histograms
    [exec.pool.queue_wait_ms] (submit → start, queued tasks only) and
    [exec.pool.run_ms] (thunk execution). *)

val jobs : t -> int
(** The configured parallelism (the [jobs] passed to {!create}). *)

val queue_depth : t -> int
(** Number of tasks currently queued and not yet picked up.  A
    point-in-time reading for health endpoints and load shedding —
    always [0] for [jobs <= 1] pools (tasks run inline). *)

val submit : t -> (unit -> 'a) -> 'a future
(** Schedule a thunk.  An exception raised by the thunk is captured
    with its backtrace and re-raised at {!await}.

    [submit] captures the submitter's telemetry span context
    ({!Mcml_obs.Obs.current_context}) and reinstates it around the
    thunk on whichever domain runs it, so spans opened inside the task
    parent under the span that submitted it — the trace forest of a
    [--jobs N] run has the same shape as the sequential one. *)

val await : 'a future -> 'a
(** Block until the task settles (helping to drain the pool's queue
    while waiting); return its result or re-raise its exception with
    the original backtrace.  Idempotent. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map_list pool f xs] runs [f x] for every element as pool tasks
    and returns the results {b in input order}.  With [jobs <= 1] this
    is exactly [List.map f xs] (left to right).  If any task raises,
    the first failing task {e in input order} determines the exception
    re-raised here. *)

val all_some : ?pool:t -> (unit -> 'a option) list -> 'a list option
(** [Some] of every thunk's result, in input order, unless one gave up
    ([None], e.g. a count that timed out).  Without [pool] the thunks
    run in order on the caller and stop at the first [None]; with one
    they run as one {!map_list} batch. *)

val shutdown : t -> unit
(** Drain remaining queued tasks, join the workers.  Idempotent; a
    no-op for [jobs <= 1] pools.  Submitting after shutdown raises
    [Invalid_argument]. *)

val with_pool : ?queue_bound:int -> jobs:int -> (t -> 'a) -> 'a
(** [create], run, [shutdown] (also on exception). *)
