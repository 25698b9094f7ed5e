(** Reading JSONL traces back (schema v3): per-line validation, span
    forest reconstruction from ids — including cross-process merging of
    one file per fleet process — the report [mcml stats] prints, a
    canonical "shape" rendering for comparing runs, self times and
    folded stacks.  {!live} prints the same report for a running
    process, aggregating events as they arrive.

    A trace is {e well-formed} when every line parses as a known
    event, every span id is started at most once and ended exactly as
    many times as it is started, every [parent] reference resolves to
    a span started earlier in the stream, and no parent chain cycles
    (the sink serializes writes, so a parent's [span_start] always
    precedes its children's — even when the two spans live on
    different domains).  {!load} checks all of this and refuses a
    trace that violates any rule, which is what lets [bin/check.sh]
    gate on schema drift.

    {b Cross-process merging.}  {!merge} and {!load_dir} lift the same
    discipline to a fleet: spans are keyed by [(pid, id)] (span-id
    counters are per-process), local parents must resolve within their
    own stream as before, and [remote] parent references — stamped by
    a router and adopted by a shard, see {!Obs.propagation} — are
    resolved across {e all} streams in a second pass.  A remote
    reference no stream satisfies is fatal, exactly like a dangling
    local parent; so is a span carrying both kinds of parent, or a
    remote-edge cycle (caught by a reachability walk).  The result is
    one forest in which a shard's [serve.request] span hangs under the
    router's [fleet.route] span from another process.

    Because parentage is carried by explicit ids, the reconstructed
    forest of a [--jobs N] run has the same {e shape} — span names,
    parent edges, per-edge call counts — as the [--jobs 1] run of the
    same workload; only timings and domain ids differ.  {!shape}
    renders exactly that invariant part (children sorted by name, no
    durations), so two shapes can be compared with [String.equal]. *)

type span = {
  pid : int;  (** emitting process *)
  id : int;
  parent : int option;
  remote_parent : (int * int) option;
      (** [(pid, span id)] of a parent in another process; the edge is
          already linked — such a span appears among that parent's
          [children] *)
  trace : int option;  (** distributed trace id, when one was active *)
  domain : int;
  name : string;
  dur_ms : float;
  attrs : (string * Obs.attr) list;
  children : span list;  (** in start order (remote children first) *)
}

type node
(** One row of the report: the spans on one path from a root, same-name
    siblings collapsed. *)

type t = {
  roots : span list;  (** the forest, in start order *)
  num_spans : int;
  counters : (string * float) list;
      (** the last value per process, summed across processes, sorted
          by name *)
  gauges : (string * float) list;
      (** the last value per process and name, never summed, sorted by
          name; when more than one process reported events names are
          qualified as [pidN/name] *)
  histograms : (string * Obs.hist_stats) list;
      (** the last summary per process and name, sorted by name; when
          more than one process reported events names are qualified as
          [pidN/name] (summaries cannot be merged bucket-wise) *)
  domains : (int * int * float) list;
      (** per domain: (domain id, span count, summed span duration in
          ms), sorted by domain id *)
  pids : (int * int * float) list;
      (** per process: (pid, span count, summed span duration in ms),
          sorted by pid *)
  remote_edges : int;  (** resolved remote parent references *)
  cross_pid_edges : int;
      (** remote edges whose endpoints live in different processes —
          the number a fleet run must show for tracing to be working *)
  tree : node;  (** the forest aggregated for {!render} and {!shape} *)
}

val of_events : Obs.event list -> (t, string list) result
(** Validate and reconstruct a single stream.  [Error msgs] lists
    every violation found (unbalanced span, dangling or cyclic parent
    — local or remote — duplicate id); positions refer to event
    indices (0-based).  Remote references may resolve within the
    stream (an in-process fleet traces router and shard spans into one
    sink). *)

val merge : (string * Obs.event list) list -> (t, string list) result
(** [merge [(label, events); …]] validates each stream and resolves
    remote parent references across all of them (see the module
    preamble).  Error positions are prefixed with the stream's
    [label]. *)

val load : string -> (t, string list) result
(** Read a JSONL trace file.  Parse errors (malformed JSON, unknown
    event kind, missing fields) are reported with 1-based line
    numbers, then {!of_events} rules apply.  Raises [Sys_error] if the
    file cannot be opened. *)

val load_dir : string -> (t, string list) result
(** Read and {!merge} every [*.jsonl] file in a directory — the layout
    [mcml fleet --trace-dir] writes (one [<role>-<pid>.jsonl] per
    process; flight-recorder dumps use a different extension and are
    deliberately skipped, a crash window is not a balanced forest).
    An empty directory is an [Error]; unreadable files raise
    [Sys_error]. *)

val shape : t -> string
(** Canonical forest shape: one [name xCOUNT] line per aggregate node
    (same-name siblings collapsed, children sorted by name,
    2-space-indented), independent of ids, timings and domains —
    byte-identical across [--jobs N] settings for a deterministic
    workload. *)

val self_times : t -> (string * int * float) list
(** Per span name: [(name, calls, total self time in ms)], sorted by
    self time descending (ties by name).  {e Self time} is a span's
    duration minus the summed durations of its direct children,
    clamped at zero — the "where did the time actually go" number a
    profiler reports; summed over a forest it never exceeds, and on a
    well-nested trace equals, the summed root durations.  In a merged
    multi-process forest names are qualified as [pidN/name], so a
    router's and a shard's same-named spans stay separate rows. *)

val folded : t -> (string * float) list
(** Flamegraph-compatible folded stacks: one
    [(root;child;…;leaf, self_ms)] pair per distinct aggregated call
    path (same-name siblings under one parent path merge), sorted by
    path.  Rendered as [path space value] lines this is exactly the
    input [flamegraph.pl] and speedscope accept; the sum of all values
    equals the sum over {!self_times}.  In a merged multi-process
    forest the {e root} frame of every stack is qualified as
    [pidN/name] — every path begins at some process's root, so that
    one qualification disambiguates all frames below it (a shard span
    adopted by a router continues the router's stack). *)

val render : out_channel -> t -> unit
(** The report: a [-- span forest (N spans, D domains)] header; the
    aggregated forest (same-name siblings collapsed into one row with
    a call count, total duration and summed numeric attributes, rows in
    first-start order); a per-domain table when more than one domain
    ran spans; a per-process table ending in a greppable
    [cross-process parent edges: N] line when more than one process
    did; then the latency, counter and gauge tables. *)

val live : ?oc:out_channel -> unit -> Obs.sink
(** A sink that aggregates events as they arrive and, on [flush],
    renders the report {!load} followed by {!render} gives for the same
    events — except that a span starting after its parent ended sits
    at the top level, because the sink keeps only open spans, never
    the stream.  A [flush] with no new events since the last one prints
    nothing.  [oc] defaults to [stdout]. *)
