(** The fleet front-end: one JSONL endpoint over N counting shards.

    Clients speak the unchanged {!Mcml_serve.Protocol} to the router;
    the router partitions the {e counting} kinds ([count], [accmc],
    [diffmc]) across shards and fans the {e admin} kinds ([health],
    [stats], [metrics]) out to all of them, merging the answers.

    {b Routing.}  A counting request's ring key ({!routing_keys}) —
    its canonical JSON minus the caller-specific [id], [trace] and
    [deadline_ms], with the budget set to the default — is placed on a
    consistent-hash {!Ring}.  The same parameters therefore always
    reach the same shard, under any budget or deadline, and that
    shard's in-memory memo and on-disk cache are keyed by the same
    content (with no budget either), so the fleet's aggregate cache is
    partitioned, not replicated.  [mcml cache warm --shards] places its
    slices by the same key.

    {b Single-flight.}  Before dispatching, every counting request
    enters a {!Single_flight} table keyed by its flight key, the ring
    key's identity plus the budget: N concurrent identical requests
    cost one upstream call, and each caller gets the shared response
    re-stamped with its own [id].  A request with a larger budget does
    not follow a leader that may time out sooner.  (The leader's
    [deadline_ms] governs the shared call.)

    {b Failure containment.}  [dispatch] is expected to absorb shard
    crashes by retrying until the supervisor respawns the shard
    ({!Proc.dispatch} does); the router turns a dispatch exception
    into an [Internal] error response rather than dropping the
    connection.  Fan-out runs shard-parallel, so one dead shard delays
    — and marks ["unreachable"] — only its own slot of a merged
    response.

    {b Connections.}  The router speaks to clients through the same
    {!Mcml_serve.Frontend} as a single server; each admitted request
    runs on its own systhread (router work waits on shards, it does not
    count), so its answer is pending; only a parse error is ready on
    the reader.

    {b Telemetry.}  Spans [fleet.conn] and [fleet.route] (attrs:
    kind, shard, dedup); counters [fleet.requests.*],
    [fleet.singleflight.leaders|dedup], [fleet.shard.restarts|call_retries];
    probes [fleet.inflight], [fleet.uptime_s], [fleet.dedup_ratio].

    {b Distributed tracing.}  Every counting request executes under a
    trace: the caller's, when the request carried a wire ["trace"]
    context, or a fresh 63-bit id otherwise
    ({!Mcml_obs.Obs.with_new_trace}).  The leader's shard dispatch is
    stamped with the [fleet.route] span's context
    ({!Mcml_obs.Obs.propagation}), so in a {!Mcml_obs.Trace.merge}d
    forest the shard's [serve.request] span hangs under the router's
    [fleet.route] span across the process boundary.  Single-flight
    followers share the leader's subtree — their own [fleet.route]
    spans stay leaves, marked [dedup].

    {b Merged metrics.}  A [metrics] request fans out to the shards as
    [format = snapshot] (schema [mcml.metrics.snapshot.v1]) whatever
    format the caller asked; text answers render one lint-clean
    fleet-wide exposition ({!Mcml_obs.Metrics.fleet_to_openmetrics}:
    counters [shard]-labeled plus an unlabeled sum, gauges per-shard
    plus [mcml_fleet_shard_up], histograms merged bucket-wise), json
    answers the [mcml.metrics.fleet.v1] document. *)

type dispatch = int -> Mcml_serve.Protocol.request -> Mcml_serve.Protocol.response
(** Send one request to shard [i], synchronously.  Must not raise for
    ordinary failures — return an [Error] response instead.  Tests and
    [bench --serve --fleet] inject in-process servers here;
    [mcml fleet] plugs {!Proc.dispatch}. *)

type config = {
  shards : int;
  vnodes : int;  (** ring points per shard (see {!Ring.create}) *)
  admission : int;
      (** max counting requests in flight router-wide; beyond it,
          requests are rejected with [Overloaded] *)
  queue_cap : int;
      (** per-connection cap on queued (not yet written) responses *)
}

val default_config : config
(** [shards = 2], [vnodes = 64], [admission = 256], [queue_cap = 128]. *)

type t

val create : ?restarts:(unit -> int array) -> config -> dispatch:dispatch -> t
(** [restarts] reports the per-shard respawn counts merged into
    [health]/[stats] responses ({!Proc.restarts} for a process fleet;
    defaults to none). *)

type keys = {
  ring : string;  (** the shard: the request's content, without its budget *)
  flight : string;  (** the single-flight: the same content with its budget *)
}

val routing_keys : Mcml_serve.Protocol.request -> keys option
(** The content identities a counting request is sharded and
    single-flighted by; [None] for the fan-out (admin) kinds. *)

val execute : t -> Mcml_serve.Protocol.request -> Mcml_serve.Protocol.response
(** Route one request synchronously: admission check, ring, flight,
    dispatch (or fan-out/merge).  The building block of
    {!handle_connection}; exposed for tests and the bench. *)

val handle_connection : t -> input:Unix.file_descr -> output:out_channel -> unit
(** {!Mcml_serve.Frontend.handle_connection} with the router's
    admission: responses come back in request order while up to
    [queue_cap] requests run concurrently. *)

val frontend : t -> Mcml_serve.Frontend.t
(** The router's front end, which owns the drain flag (once drained,
    {!execute} answers [Draining]); hand it to
    {!Mcml_serve.Frontend.serve_unix} with {!handle_connection}. *)

val shutdown : t -> unit
(** Unregister the router's probes and close its front end.  Call
    after the connection loops return (shard processes are owned by
    {!Proc} and stopped there). *)
