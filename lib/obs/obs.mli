(** Telemetry for the MCML substrate: identified timing spans, named
    counters/gauges, latency histograms, and pluggable sinks.

    The layer is designed around one invariant: with the default
    {!null} sink installed, instrumented code pays a single physical
    equality check ({!enabled}) and nothing else — no clock reads, no
    allocation, no hash lookups.  Every instrumentation site in the
    solver, the counters, and the pipeline is guarded this way, so the
    hot paths are unaffected unless the user opts in with [--trace] or
    [--verbose-stats].

    Events flow to whatever sink is installed:
    - {!null} — drops everything (the default);
    - {!jsonl} — one JSON object per line, machine-readable traces;
    - {!stats_only} — records no events but leaves the counter and
      histogram tables live (used by [bench]'s section latencies and
      by daemons that answer [metrics] scrapes without a trace);
    - {!tee} — duplicates events to two sinks;
    - {!Trace.live} — aggregates the stream as it arrives and prints
      on {!flush} the report [mcml stats --from-trace] prints for the
      same events.

    {b Span identity (schema v3).}  Every span carries a fresh
    process-unique [id], the [id] of its parent span (the span that
    was current on the starting thread, [None] for a root), the
    integer id of the domain it started on, and — new in v3 — the
    emitting process's [pid], the 63-bit id of the distributed trace
    it belongs to, and, for a span whose parent lives in another
    process, a [remote] parent reference [(pid, span id)].  The
    current-span context belongs to one systhread (keyed by
    [Thread.id]), so spans emitted concurrently by pool workers or by
    a server's connection threads never corrupt each other's nesting;
    {!current_context}/{!with_context} let a task queue (see
    [Mcml_exec.Pool.submit]) or a new thread carry the submitter's
    context, and {!propagation}/{!remote_context} carry it across
    {e processes} — a fleet router stamps its in-flight span onto the
    wire and the shard rehydrates it, so the merged forest (see
    {!Trace.merge}) stays well-formed across the whole fleet.

    The JSONL event schema, v3, one object per line ([parent] is
    omitted for root spans, [trace] when no trace id is active,
    [remote] for local spans; every event carries [pid]):
    {v
    {"ts":<unix s>,"kind":"span_start","name":"solver.solve",
     "id":17,"parent":16,"domain":0,"pid":4242,"trace":901237...}
    {"ts":…,"kind":"span_start","name":"serve.request",
     "id":3,"domain":0,"pid":4243,"trace":901237...,
     "remote":{"pid":4242,"id":17}}
    {"ts":…,"kind":"span_end","name":"solver.solve",
     "id":17,"parent":16,"domain":0,"pid":4242,"trace":…,"dur_ms":0.42,
     "attrs":{"conflicts":17,"result":"sat"}}
    {"ts":…,"kind":"counter","name":"solver.conflicts","value":123.0,
     "pid":4242}
    {"ts":…,"kind":"gauge","name":"exec.pool.queue_depth","value":3.0,
     "pid":4242}
    {"ts":…,"kind":"histogram","name":"solver.solve_ms","count":3000,
     "p50_ms":0.05,"p90_ms":0.11,"p99_ms":0.41,"max_ms":2.7,"pid":4242}
    v}
    Counter, gauge and histogram events are emitted once per live name
    at {!flush} time with the then-current state.  A trace reader sums
    a counter over processes and keeps a gauge per process (traces
    written before gauge events existed carry gauges as counters).

    {b Thread safety.}  The installed sink lives in an [Atomic.t], so
    {!set_sink} (installing, or tee-ing a second sink onto a live one)
    is safe at any time, even after worker domains exist.  Counter,
    gauge and histogram mutation and sink emission are serialized by
    one internal mutex: every JSONL line stays intact and totals are
    exact under concurrency.  Span nesting is tracked per systhread (no
    shared depth counter).

    Durations ([dur_ms], and every deadline in the counting substrate)
    come from the monotonic clock ({!monotonic_s}); event timestamps
    [ts] remain wall-clock Unix seconds. *)

(** {1 Events and sinks} *)

type attr = Int of int | Float of float | Bool of bool | Str of string

type hist_stats = {
  count : int;
  p50 : float;
  p90 : float;
  p99 : float;
  max : float;
}
(** A histogram summary: observation count, interpolated percentiles
    and the exact maximum, all in the unit that was observed
    (milliseconds everywhere in this codebase). *)

type event =
  | Span_start of {
      ts : float;
      name : string;
      id : int;
      parent : int option;
      domain : int;
      pid : int;
      trace : int option;
      remote : (int * int) option;
    }
  | Span_end of {
      ts : float;
      name : string;
      id : int;
      parent : int option;
      domain : int;
      pid : int;
      trace : int option;
      remote : (int * int) option;
      dur_ms : float;
      attrs : (string * attr) list;
    }
  | Counter of { ts : float; name : string; value : float; pid : int }
  | Gauge of { ts : float; name : string; value : float; pid : int }
  | Histogram of { ts : float; name : string; stats : hist_stats; pid : int }
      (** [pid] is the emitting process; [trace] the distributed
          trace id active when the span opened; [remote] the
          cross-process parent reference [(pid, span id)] for a span
          adopted from another process — mutually exclusive with a
          local [parent]. *)

type sink = { emit : event -> unit; flush : unit -> unit }

val null : sink
(** Drops every event.  Installed by default; {!enabled} is a physical
    equality check against this value. *)

val jsonl : string -> sink
(** [jsonl path] opens (truncates) [path] and writes one JSON line per
    event.  [flush] flushes the channel; the channel is closed at
    process exit. *)

val stats_only : unit -> sink
(** Ignores all events.  Unlike {!null} it still turns {!enabled} on,
    so counters and histograms accumulate and can be read back with
    {!monotonic_counters} / {!histograms} — the cheapest way to get
    machine-readable totals without a trace. *)

val tee : sink -> sink -> sink

val set_sink : sink -> unit
(** Install a sink.  Safe from any domain at any time (the sink cell
    is atomic); events already in flight finish on the old sink. *)

val sink : unit -> sink

val enabled : unit -> bool
(** [true] iff the installed sink is not {!null}. *)

(** {1 Clock} *)

val monotonic_s : unit -> float
(** Monotonic time in seconds (arbitrary epoch).  Always available —
    it does not depend on a sink being installed.  Use differences of
    this for durations and deadlines; use [Unix.gettimeofday] only for
    absolute timestamps. *)

(** {1 Spans}

    Spans nest per systhread: [start] makes the new span current on
    the calling thread, [finish] restores its parent.  When the layer is
    disabled both are free (a shared dummy token, no clock read). *)

type span

val start : string -> span
(** Open a span and make it current on the calling thread. *)

val finish : ?attrs:(string * attr) list -> span -> unit
(** [finish sp] emits the [Span_end] and also feeds the span's
    duration into the histogram named after the span, so every
    instrumented operation gets a latency distribution for free. *)

val with_span : ?attrs:(unit -> (string * attr) list) -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span.  [attrs] is evaluated
    only on normal completion, after [f] returns — so it can read
    values computed by [f].  If [f] raises, the span is finished with
    [("outcome", Str "raised")] and the exception is re-raised. *)

(** {2 Cross-thread context}

    A queue that moves work between domains (the [Mcml_exec] pool)
    captures the submitter's context at [submit] time and reinstates
    it around the task body, so worker-side spans parent under the
    span that submitted them rather than floating as roots.  A new
    systhread starts with the empty context; code that spawns one for
    work under an open span passes the context on the same way. *)

type context
(** The identity of the current span on this thread ([None]-like for
    "no span open").  A small immutable value, safe to send across
    threads and domains. *)

val empty_context : context
(** No open span, no trace.  Install it ({!with_context}) to start a
    fresh root — e.g. a test or bench driving a server's [execute]
    directly, outside any connection loop. *)

val current_context : unit -> context
(** The calling thread's current span context.  Cheap; returns the
    empty context when the layer is disabled. *)

val with_context : context -> (unit -> 'a) -> 'a
(** [with_context ctx f] runs [f] with [ctx] installed as the calling
    thread's span context, restoring the previous context afterwards
    (also on exception).  Just [f ()] when the layer is disabled. *)

(** {2 Cross-process propagation}

    A fleet router and its shards are separate processes with
    independent span-id counters, so parenting across the boundary
    needs an explicit wire handshake: the sender calls {!propagation}
    inside its in-flight span and ships the triple; the receiver
    rebuilds a context with {!remote_context} and runs the request
    under it.  The first span opened under that context records the
    [(pid, span id)] pair as its [remote] parent — {!Trace.merge}
    resolves the edge when the two processes' files are merged. *)

val remote_context : trace_id:int -> pid:int -> span:int -> context
(** A context rehydrated from wire data: no local current span, trace
    id [trace_id], remote parent [(pid, span)].  The next {!start}
    under it emits a span with a [remote] parent reference. *)

val with_new_trace : (unit -> 'a) -> 'a
(** [with_new_trace f] runs [f] with a fresh 63-bit trace id installed
    — unless one is already active, in which case [f] runs unchanged
    (trace ids are inherited, never overwritten).  Free when the layer
    is disabled. *)

val propagation : unit -> (int * int * int) option
(** [(trace id, own pid, current span id)] identifying the calling
    thread's in-flight span for cross-process propagation — [Some]
    only when a span is open {e and} a trace id is active (see
    {!with_new_trace}); [None] otherwise, and always [None] when the
    layer is disabled, so callers can stamp unconditionally. *)

(** {1 Counters and gauges}

    Counters are global, keyed by name, and accumulate only while
    {!enabled}; gauges overwrite.  The two kinds live in separate
    tables so a snapshot can expose them with the correct OpenMetrics
    type (see {!Metrics}).  Reading is always allowed. *)

val add : string -> int -> unit
val addf : string -> float -> unit
(** [add name n] / [addf name x] accumulate into the counter [name]
    (creating it on first use). *)

val gauge : string -> float -> unit
(** [gauge name x] overwrites the gauge [name] with [x] — only while
    {!enabled}, like every hot-path instrumentation point. *)

val gauge_set : string -> float -> unit
(** Like {!gauge} but unconditional: records even under the {!null}
    sink.  For explicit sampling points ({!Probe.sample}) that only run
    when someone asked for a snapshot — never call it from a hot
    path. *)

val counter_value : string -> float
(** Current value of the counter — or, if no counter has that name,
    the gauge — called [name]; [0.] if neither was ever touched. *)

val monotonic_counters : unit -> (string * float) list
(** Sorted snapshot of the monotonic counters only ({!add}/{!addf}). *)

val gauges : unit -> (string * float) list
(** Sorted snapshot of the gauges only ({!gauge}/{!gauge_set}). *)

val reset_counters : unit -> unit
(** Clears counters, gauges and histograms. *)

(** {1 Histograms}

    Log-bucketed latency distributions, global and keyed by name like
    counters.  {!observe} records only while {!enabled}; one
    [Histogram] event per changed histogram is emitted at {!flush}. *)

module Histogram : sig
  (** A log-bucketed histogram: bucket [0] holds values [<= lo]
      (including everything non-positive); bucket [i > 0] holds values
      in [(upper (i-1), upper i]] where [upper i = lo *. growth ** i].
      With [growth = 2 ** 0.25] a bucket is ~19% wide, so interpolated
      percentiles carry at most ~9% relative error — plenty for
      latency distributions.  The exact maximum is tracked on the
      side.  Values are unit-agnostic; this codebase always observes
      milliseconds. *)

  type t

  val lo : float
  (** Lower edge of the first bucket ([1e-6], matching the [dur_ms]
      reporting floor). *)

  val growth : float
  (** Geometric bucket growth factor ([2 ** 0.25]). *)

  val bucket_count : int

  val bucket_of : float -> int
  (** Bucket index a value falls into (clamped to the last bucket). *)

  val bucket_lower : int -> float
  (** Exclusive lower edge of a bucket ([0.] for bucket 0). *)

  val bucket_upper : int -> float
  (** Inclusive upper edge of a bucket. *)

  val create : unit -> t
  (** A fresh empty histogram. *)

  val observe : t -> float -> unit
  (** Record one value. *)

  val count : t -> int
  (** Number of recorded observations. *)

  val sum : t -> float
  (** Exact sum of the finite positive observed values (tracked on the
      side, like the max) — what OpenMetrics exposition reports as the
      [_sum] sample. *)

  val max_value : t -> float
  (** Exact maximum observed value ([neg_infinity] when empty). *)

  val bucket_count_at : t -> int -> int
  (** Observations in bucket [i] (raises on an out-of-range index) —
      what exposition renders as cumulative [_bucket] samples. *)

  val of_raw :
    buckets:(int * int) list -> count:int -> sum:float -> max:float -> t
  (** Rebuild a histogram from serialized raw state: sparse
      [(bucket index, occupancy)] pairs plus the side-tracked
      count/sum/max.  The inverse of reading {!bucket_count_at} over
      occupied indices — used by the metrics snapshot wire codec so a
      router can {!merge} shard histograms bucket-wise.  Raises
      [Invalid_argument] on a negative count or an out-of-range
      bucket. *)

  val merge : t -> t -> t
  (** [merge a b] is a fresh histogram equivalent to observing
      everything [a] and [b] observed (bucket-wise sum; max of
      maxes). *)

  val diff : t -> t -> t
  (** [diff later earlier] is the distribution of the observations
      recorded in [later] but not in [earlier], assuming [earlier] is
      a prefix snapshot of [later] (bucket-wise subtraction).  The
      [max] of the result is exact when the interval raised [later]'s
      max; otherwise it is the upper edge of the interval's highest
      occupied bucket, which over-approximates by less than one
      bucket. *)

  val copy : t -> t

  val percentile : t -> float -> float
  (** [percentile t p] for [p] in [0..1], linearly interpolated inside
      the containing bucket and clamped to the observed maximum.
      [0.] on an empty histogram. *)

  val stats : t -> hist_stats option
  (** [None] on an empty histogram. *)
end

val observe : string -> float -> unit
(** [observe name v] records [v] into the global histogram [name]
    (creating it on first use) — only while {!enabled}. *)

val histogram_stats : string -> hist_stats option
(** [None] if the histogram was never touched (or never observed). *)

val histograms : unit -> (string * hist_stats) list
(** Sorted snapshot of all non-empty histograms. *)

val histogram_copies : unit -> (string * Histogram.t) list
(** Sorted snapshot of the raw histograms (independent copies) — pair
    two snapshots with {!Histogram.diff} to get per-section
    distributions, as [bench --json] does. *)

val flush : unit -> unit
(** Emit one {!type-event}[.Counter] event per live counter, one
    [Gauge] event per live gauge and one [Histogram] event per live
    histogram to the sink (skipping entries
    unchanged since the previous [flush], so an explicit flush
    followed by the [at_exit] one doesn't duplicate), then flush the
    sink. *)

(** {1 Rendering helpers} *)

val attr_to_json : attr -> Json.t
val event_to_json : event -> Json.t
(** The JSONL (schema v3) renderings the {!jsonl} sink writes. *)

val event_of_json : Json.t -> (event, string) result
(** Parse one event object back (the inverse of {!event_to_json}).
    Every field but [parent], [trace], [remote] and [attrs] is
    required, [pid] included, so a pre-v3 line is an error.  [Error]
    names the offending field — an unknown ["kind"] is an error, which
    is what lets trace validation reject schema drift. *)
