(** Content-addressed, bounded, thread-safe memo cache.

    Entries are keyed by the {e full content string} the caller
    serializes (for the count cache: the backend and the entire CNF).
    Internally keys are addressed by a short digest, but the full key
    is stored and compared on lookup, so a digest collision degrades to
    a miss — never to a wrong value ("hash-collision safety"; the test
    suite forces collisions through [hash]).

    Eviction is FIFO over insertion order, bounded by [capacity].

    {b Thread safety.}  All operations are serialized by an internal
    mutex.  {!find_or_add} computes the value {e outside} the lock,
    under a per-key rule: concurrent callers of one absent key wait
    for a single computation, different keys compute in parallel, a
    hit never waits behind another key's computation, and a
    computation that raises is kept by nobody (a waiting caller then
    computes with its own function).  {!find} followed by {!add} has
    no such rule: two racers may both compute, and the first insert
    wins unless {!add}'s [replace] accepts the later one.

    {b Persistent tier.}  An optional {!backing} store sits behind the
    memory tier: {!find} consults it on a memory miss (outside the
    lock) and {e promotes} a backing hit into memory, counting it as a
    hit — "miss" means {e had to be recomputed}, which is the contract
    restart-replay checks rely on; {!add} writes through.  Eviction
    never touches the backing store (it is the durable, append-only
    tier — see {!Diskcache}).

    {b Telemetry.}  Hits, misses and evictions are always tracked in
    the cache itself ({!stats}) and mirrored to [Mcml_obs] counters
    [<name>.hits] / [<name>.misses] / [<name>.evictions] /
    [<name>.disk_hits] (backing-tier hits) when a sink is installed;
    {!find} also feeds the [<name>.lookup_ms] latency histogram (the
    cost includes hashing the full key). *)

type 'a t

type 'a backing = {
  load : string -> 'a option;  (** [None] = absent (not "cached absent") *)
  store : string -> 'a -> unit;
      (** must tolerate re-stores of an existing key (no-op) *)
}
(** A persistent tier, already serialized for the caller's ['a] —
    {!Mcml_counting.Counter.cache_create} wires this to
    {!Diskcache}. *)

type stats = {
  hits : int;  (** memory- or backing-tier hits *)
  misses : int;  (** absent from both tiers, or rejected by [usable] *)
  evictions : int;
  size : int;
  backing_hits : int;  (** the subset of [hits] served by the backing tier *)
}

val create :
  ?capacity:int ->
  ?hash:(string -> string) ->
  ?backing:'a backing ->
  name:string ->
  unit ->
  'a t
(** [capacity] defaults to 4096 entries.  [hash] maps a full key to
    its short address and defaults to [Digest.string] (MD5); it is
    injectable only so tests can force collisions. *)

val find : ?usable:('a -> bool) -> 'a t -> key:string -> 'a option
(** A memory-tier value that [usable] (default: every value) rejects
    reads as [None] and counts as a miss, since the caller must
    recompute it; the backing tier is not consulted for it.  A value
    loaded from the backing tier is always usable. *)

val add : ?replace:('a -> bool) -> 'a t -> key:string -> 'a -> unit
(** First insert wins: adding an existing key is a no-op, unless
    [replace] (default: never) accepts the value present.  A replaced
    value keeps its key's place in the eviction order, and the new one
    is written through. *)

val find_or_add : 'a t -> key:string -> (unit -> 'a) -> 'a
(** Lookup; on a miss, compute (outside the lock) and insert.  While
    one caller computes [key], other callers of [key] block until it
    settles; if its [f] raises, the exception reaches that caller only,
    nothing is stored, and one waiter computes [key] with its own [f].
    [f] must not ask for [key] itself: it would wait on its own claim.
    Each call counts one hit or one miss.  It reads the memory tier
    only ({!add} still writes through), and observes no
    [lookup_ms]. *)

val stats : 'a t -> stats
