(** Shard processes: spawning, supervision, and per-call transport.

    Each shard is a full [mcml serve] child process — its own domain
    pool, its own count cache, its own slice of the persistent disk
    cache (directory [cache_dir/shard-<i>]; one writer per directory
    is exactly the {!Mcml_exec.Diskcache} locking rule) — listening on
    [dir/shard-<i>.sock].

    {b Supervision.}  One thread per shard [waitpid]s the child and
    respawns it when it exits uninvited, with exponential backoff from
    [backoff_min_s] to [backoff_max_s] that resets after the child
    stays up [stable_after_s] — a crash loop is throttled, a one-off
    crash (or a kill -9 from a chaos test) heals in ~100ms.  Restarts
    count into [fleet.shard.restarts].

    {b Transport.}  {!call} opens a fresh connection per exchange and
    retries the {e whole} exchange — connect, write, read — until it
    has a response line or [deadline_s] passes.  Count requests are
    pure functions of their key, so re-sending after a mid-count crash
    is safe; this retry-until-respawned loop is what lets the router
    absorb a shard death with zero failed client responses.  Retries
    count into [fleet.shard.call_retries]. *)

type config = {
  exe : string;  (** the mcml binary to spawn ([Sys.executable_name]) *)
  shards : int;
  dir : string;  (** runtime directory for the shard sockets *)
  jobs : int;  (** worker domains per shard *)
  admission : int;  (** per-shard admission limit *)
  cache_dir : string option;
      (** root of the persistent cache; shard [i] writes
          [cache_dir/shard-<i>] *)
  trace_dir : string option;
      (** passed to every shard as [--trace-dir]: each child traces
          into [trace_dir/shard-<pid>.jsonl], alongside the router's
          own file, for {!Mcml_obs.Trace.load_dir} to merge *)
  call_deadline_s : float;  (** default {!call} retry window *)
  backoff_min_s : float;
  backoff_max_s : float;
  stable_after_s : float;  (** uptime that resets the backoff *)
}

val default_config : exe:string -> dir:string -> config
(** [shards = 2], [jobs = 1], [admission = 64], [cache_dir = None],
    [trace_dir = None], [call_deadline_s = 30.], backoff 0.1s..2s,
    [stable_after_s = 5.]. *)

type t

val start : config -> t
(** Spawn every shard and its supervisor.  Returns immediately;
    {!call} retries while shards are still binding their sockets. *)

val shards : t -> int

val sockets : t -> string array
(** Socket path per shard (by index). *)

val restarts : t -> int array
(** Respawn count per shard since {!start}. *)

val call : ?deadline_s:float -> t -> shard:int -> string -> (string, string) result
(** [call t ~shard line] sends one JSONL request line and returns the
    response line, retrying through shard restarts as described above.
    [Error] after [deadline_s] of continuous unavailability (or once
    {!stop} was called), and at once for a response line longer than
    {!Mcml_serve.Line_reader.max_line}. *)

val dispatch :
  ?deadline_s:float ->
  t ->
  int ->
  Mcml_serve.Protocol.request ->
  Mcml_serve.Protocol.response
(** {!call} at the protocol level: serialize, exchange, parse.
    Transport failure surfaces as an [Internal] error response carrying
    the request's id — the shape {!Router.create}'s [dispatch] wants. *)

val stop : t -> unit
(** SIGTERM every shard (graceful drain), stop respawning, reap. *)
