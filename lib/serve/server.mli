(** The [mcml serve] daemon: a long-running counting service over the
    parallel runtime.

    One server owns one {!Mcml_exec.Pool} and one shared
    content-addressed count cache ({!Mcml_counting.Counter.cache}), so
    a warm process answers repeated queries without re-counting,
    whatever budget or deadline they carry, and concurrent requests
    share both.  A count is made of the queries of its
    {!Mcml_alloy.Analyzer.plan}: an exact count of ¬ϕ∧S is #S − #(ϕ∧S),
    two lookups.  The server translates each query once (ϕ∧S or ¬ϕ∧S
    per property, scope, symmetry and negation; the universe S per
    scope and symmetry), so a repeated count pays only for its cache
    lookups.  Connections speak the JSONL {!Protocol} through a
    {!Frontend}; the server decides what it admits.  On the
    connection's reader it answers admin kinds, parse errors,
    rejections, and every count with an explicit scope whose queries
    are prepared and whose lookups decide the answer; everything else
    runs on the pool.  A count's lookups run once: a miss on the
    reader is counted by a pool task without a second lookup.

    {b Bounded admission, explicit overload.}  At most
    [config.admission] counting requests are in flight per server at
    once; a request arriving beyond that is answered immediately with
    [code = "overloaded"] — the service degrades by shedding load, not
    by buffering it.  A count answered on the reader queues no work and
    takes no slot.

    {b Deadlines ride the budget discipline.}  A request's
    [deadline_ms] is fixed at admission; when its execution starts, the
    remaining time clamps the counter [budget]
    ([min budget remaining]), so an expired or nearly-expired deadline
    turns into the counters' existing timeout path and comes back as a
    [code = "timeout"] response — the connection stays alive.

    {b Telemetry.}  Each connection runs inside a [serve.conn] span;
    every request executes inside a [serve.request] span that parents
    under it (across domains, via the pool's context capture), so a
    [--trace] of a busy server replays as a well-formed forest with
    [mcml stats --from-trace].  Counters: [serve.requests.*], plus the
    SLO family [serve.slo.*] — [deadline_requests]/[deadline_hit]/
    [deadline_miss] for requests that carried a [deadline_ms]
    ([hit] = answered [Ok], [miss] = [timeout]) and
    [overload_rejections] — and the [serve.deadline_ms] histogram of
    requested deadlines (compare its spread against the
    [serve.request] latency histogram's p99).

    {b Live metrics.}  A [metrics] request answers with an
    {!Mcml_obs.Metrics} snapshot of the whole registry (sampling the
    runtime probes first), independent of any sink flush.  At
    {!create} the server registers dynamic probe sources — pool queue
    depth, in-flight count, count-cache hit ratio and size, deadline
    hit ratio, [serve.request] p99 — which {!shutdown} removes.
    Nothing samples on a timer: a scrape reads current values, and
    {!Frontend.serve_unix} samples once at drain. *)

type config = {
  jobs : int;  (** pool workers; [<= 1] executes inline on the reader *)
  admission : int;
      (** max counting requests in flight server-wide; beyond it,
          requests are rejected with [Overloaded].  [0] rejects every
          counting request that needs work (admin kinds still
          answer). *)
  queue_cap : int;
      (** per-connection cap on queued (not yet written) responses;
          a full queue blocks the reader (socket backpressure) *)
  cache : bool;  (** share one count cache across all requests *)
  cache_capacity : int;  (** entries, FIFO-evicted ({!Mcml_exec.Memo}) *)
  shard_id : int option;
      (** fleet identity: when set, [health] and [stats] payloads carry
          a ["shard"] field so the router's fan-out merge stays
          attributable; [None] leaves the payloads exactly as before *)
  cache_dir : string option;
      (** when set (and [cache] is on), the count cache is backed by a
          persistent {!Mcml_exec.Diskcache} at this directory: opened
          (with crash recovery) at {!create}, written through on every
          new outcome, closed at {!shutdown}.  A restarted server
          answers previously counted keys from disk without
          recounting. *)
}

val default_config : config
(** [jobs = 1], [admission = 64], [queue_cap = 128], [cache = true],
    [cache_capacity = 4096], [shard_id = None], [cache_dir = None]. *)

type t

val create : config -> t
(** Spawn the pool (and cache) for a server.  {!shutdown} it when
    done. *)

val jobs : t -> int
(** The configured pool parallelism. *)

val execute : t -> Protocol.request -> Protocol.response
(** Execute one request synchronously on the calling domain —
    admission, queueing and the pool are bypassed; the deadline (taken
    relative to now) still clamps the budget.  This is the building
    block the connection loop dispatches onto the pool, exposed for
    [bench --serve]'s direct baseline and for tests. *)

val handle_connection : t -> input:Unix.file_descr -> output:out_channel -> unit
(** {!Frontend.handle_connection} with this server's admission. *)

val frontend : t -> Frontend.t
(** The server's front end, which owns the drain flag: {!Frontend.drain}
    it to stop admitting; hand it to {!Frontend.serve_unix} with
    {!handle_connection}. *)

val shutdown : t -> unit
(** Shut the pool down and close the front end.  Call after the
    connection loops return. *)
