(** Runtime probes: on-demand sampling of process health into gauges.

    A probe {!sample} reads the OCaml GC ([Gc.quick_stat]), the
    process resource usage ([getrusage(RUSAGE_SELF)] via a C stub) and
    every registered dynamic source, and records each reading with
    {!Obs.gauge_set} — {e unconditionally}, even under the null sink.
    Sampling is an explicit act (a [metrics] request, a server's
    drain, the end of a bench run), not a hot path, so the
    zero-overhead invariant of the instrumentation sites is untouched.

    Built-in gauge families written by every sample:
    - [gc.minor_words], [gc.promoted_words], [gc.major_words] —
      cumulative allocation counters (words);
    - [gc.heap_words], [gc.compactions], [gc.minor_collections],
      [gc.major_collections] — current heap size and collection
      counts;
    - [proc.max_rss_bytes], [proc.cpu_user_s], [proc.cpu_sys_s] —
      peak resident set and cumulative CPU time.

    Dynamic sources let subsystems publish point-in-time readings
    without the probe layer depending on them: the server registers
    its pool queue depth, in-flight count and count-cache hit ratio at
    startup ({!register}) and removes them at shutdown
    ({!unregister}).  A source that raises is skipped for that sample
    — a dying subsystem must not take the scrape down with it. *)

type rusage = { max_rss_bytes : float; user_s : float; sys_s : float }

val rusage : unit -> rusage
(** Current [getrusage(RUSAGE_SELF)] reading ([max_rss_bytes] is
    normalized to bytes on every platform).  All zeros if the call
    fails. *)

val register : string -> (unit -> float) -> unit
(** [register name f] adds (or replaces) the dynamic source [name]:
    every subsequent {!sample} records [Obs.gauge_set name (f ())].
    Safe from any thread. *)

val unregister : string -> unit
(** Remove a dynamic source.  Unknown names are ignored. *)

val sample : unit -> unit
(** Take one sample: record the GC, rusage and dynamic-source gauges.
    Cheap (microseconds), but not free — call it per scrape, not per
    request. *)
