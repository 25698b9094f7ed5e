(** Content-addressed, bounded, thread-safe memo cache.

    Entries are keyed by the {e full content string} the caller
    serializes (for the count cache: the backend and the entire CNF),
    wrapped once by {!key}, which hashes the text and keeps the hash.
    A lookup reads that hash and never passes over the text to find
    its slot.  The full text is stored and compared on lookup, so two
    texts of equal hash degrade to a miss — never to a wrong value
    ("hash-collision safety"; the test suite searches out two texts of
    equal hash).  The comparison tries physical equality first: a
    caller that keeps its key (a prepared
    {!Mcml_counting.Counter.query}) hits without reading the text.

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
    {!find} also feeds the [<name>.lookup_ms] latency histogram: the
    table probe, the key comparison and, on a memory miss, the backing
    load.  Hashing is not in it: {!key} did that, once. *)

type 'a t

type key
(** A key text with its hash. *)

val key : string -> key
(** [key text] hashes [text] (one pass; {!Hashtbl.hash}, which reads
    every byte of a string).  Build it once per query and keep it. *)

val text : key -> string

type 'a backing = {
  load : string -> 'a option;
      (** by the key's text; [None] = absent (not "cached absent") *)
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

val create : ?capacity:int -> ?backing:'a backing -> name:string -> unit -> 'a t
(** [capacity] defaults to 4096 entries. *)

val find : ?usable:('a -> bool) -> 'a t -> key:key -> 'a option
(** A memory-tier value that [usable] (default: every value) rejects
    reads as [None] and counts as a miss, since the caller must
    recompute it; the backing tier is not consulted for it.  A value
    loaded from the backing tier is always usable. *)

val add : ?replace:('a -> bool) -> 'a t -> key:key -> 'a -> unit
(** First insert wins: adding an existing key is a no-op, unless
    [replace] (default: never) accepts the value present.  A replaced
    value keeps its key's place in the eviction order, and the new one
    is written through. *)

val find_or_add : 'a t -> key:key -> (unit -> 'a) -> 'a
(** Lookup; on a miss, compute (outside the lock) and insert.  While
    one caller computes [key], other callers of [key] block until it
    settles; if its [f] raises, the exception reaches that caller only,
    nothing is stored, and one waiter computes [key] with its own [f].
    [f] must not ask for [key] itself: it would wait on its own claim.
    Each call counts one hit or one miss.  It reads the memory tier
    only ({!add} still writes through), and observes no
    [lookup_ms]. *)

val stats : 'a t -> stats
