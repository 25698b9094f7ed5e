(** Unified front end over the model-counting backends.

    The paper's tooling treats the counter as a pluggable component
    (ApproxMC or ProjMC); this module provides the corresponding
    dispatch, timing, and timeout discipline (the paper uses a 5000 s
    timeout; ours defaults lower and is configurable).

    {b Thread safety.}  [count] may be called concurrently from
    several domains: each call builds its own solver/counter state,
    and the optional {!cache} is internally synchronized.  Timing uses
    the monotonic clock ({!Mcml_obs.Obs.monotonic_s}), so budgets are
    immune to wall-clock adjustments. *)

open Mcml_logic

type backend =
  | Exact
      (** exact projected counting by decision-DNNF compilation
          ({!Exact}), filling the paper's ProjMC role *)
  | Approx of Approx.config  (** the ApproxMC stand-in *)
  | Brute  (** exhaustive reference counter (tests, tiny instances) *)

type outcome = {
  count : Bignat.t;
  exact : bool;  (** whether the backend guarantees exactness *)
  time : float;  (** wall-clock seconds *)
}

val name : backend -> string
(** Human-readable backend name, e.g. ["exact(ddnnf)"] — for display;
    not parseable back (the serve protocol uses its own wire names). *)

type cache
(** Content-addressed memo of count outcomes, keyed by the full
    (backend, CNF) content — see {!cache_key}: two queries prepared
    from equal CNFs share an entry.  The budget is not part
    of the key: a finished count is the same under any budget, so it
    answers every later call of the same query, whatever budget or
    deadline that call carries.  A timeout is kept in memory only, with
    the budget it ran under: it answers a later call with no more
    budget, which saves re-burning that budget, while a call with more
    time counts again rather than inherit it.  It is never written to
    disk: it says as much about the load and the clock as about the
    query.  A cached outcome keeps the {e original} [time] field, which
    can exceed the budget of the call it answers. *)

val cache_create : ?capacity:int -> ?disk:Mcml_exec.Diskcache.t -> unit -> cache
(** Bounded (FIFO-evicted, default 4096 entries) cache; its hit/miss/
    eviction counters are exported as [exec.count_cache.*] through
    [Mcml_obs].  With [disk], the memo is backed by the persistent
    {!Mcml_exec.Diskcache}: misses consult the disk (a disk hit counts
    as a cache {e hit} and is promoted into memory) and new outcomes
    are written through, so a restarted process answers previously
    counted keys without recounting.  Only completed counts are
    written; a timeout record an older build wrote reads back as
    absent, so a restarted process counts it again.  The caller owns
    the disk handle (and closes it). *)

val cache_stats : cache -> Mcml_exec.Memo.stats

type query
(** A prepared count query: a CNF and the backend to count it with.
    Its cache key ({!cache_key}) and that key's hash are built at most
    once, by the first lookup in a {!cache}, and kept: a caller that
    keeps the query (as [mcml serve] does, per translation) asks a
    repeated count at a cost that does not grow with the CNF.  A query
    never looked up in a cache builds no key.  Safe to share across
    domains: two that race on the first lookup each build the same key,
    and the first one kept wins. *)

val query : backend:backend -> Cnf.t -> query

val backend_key : backend -> string
(** The backend's part of {!cache_key}: its name and every parameter
    its answer depends on (for Approx, the seed included).  Two
    backends with one [backend_key] give one answer for one CNF. *)

val cache_key : query -> string
(** The full serialized identity of a count query: {!backend_key},
    [nvars], the projection set (an explicit set is distinguished from
    [None]), and every clause literal.  No budget: see {!cache}.  The
    text is the one earlier builds keyed their disk records by, byte
    for byte, so those records keep answering.  Built once per query
    (see {!query}); exposed for tests. *)

val count : ?budget:float -> ?cache:cache -> query -> outcome option
(** [count q] runs [q]'s counter on its CNF; [None] on timeout
    ([budget] in seconds, default 5000 like the paper).  With [cache],
    the query key is looked up first: a completed count is returned
    whatever [budget] this call carries, and a kept timeout answers
    [None] if this call's [budget] is no larger than the one it timed
    out under.  Otherwise the lookup is a miss, the counter runs under
    [budget], and its outcome is stored (a timeout in memory only).
    While telemetry is enabled, every call feeds the per-backend
    latency histogram [counter.count.<backend>_ms] (end-to-end as the
    caller sees it, cache lookup included). *)
