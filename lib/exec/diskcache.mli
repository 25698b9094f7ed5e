(** Persistent content-addressed cache: an append-only record log.

    One directory holds one cache: a single [cache.log] file of
    CRC-checked records, loaded into an in-memory index at {!open_}.
    Keys and values are opaque strings (the count cache stores the
    full {!Mcml_counting.Counter.cache_key} and a serialized outcome);
    the log is the durable tier behind the in-memory {!Memo}, so a
    restarted process answers previously counted queries without
    recounting.

    {b On-disk format.}  An 8-byte file magic, then records:
    [key_len : u32le][val_len : u32le][key][value][crc : u32le] where
    the CRC-32 (IEEE) covers the two length fields and both payloads.
    Records are append-only; a key is written at most once (first
    insert wins, like {!Memo.add}).

    {b Crash safety.}  {!open_} scans the log and stops at the first
    record that fails to parse: a short read (a crash mid-append left
    a partial record) or a CRC mismatch (bit rot, torn write).
    Everything before that point is served; everything at and after it
    is dropped deterministically, and a writable open truncates the
    file back to the last good record so subsequent appends produce a
    clean log again.  {!verify} performs the same scan without
    modifying anything and reports the first defect.

    {b Concurrency.}  One writer may hold a directory at a time: a
    writable {!open_} takes an advisory lock ([lock] file, [lockf],
    plus a process-local registry — [lockf] alone cannot exclude a
    second writer in the same process) and raises [Failure] if another
    writer holds it; the lock dies with the process, so a crashed
    shard never wedges its successor.
    Read-only opens ([readonly:true]) take no lock and may run
    concurrently with a live writer — because records are appended
    atomically-in-order and CRC-checked, a concurrent reader always
    observes a valid prefix of the log, never garbage.  Within one
    process all operations are serialized by an internal mutex.

    {b Telemetry.}  Counters [exec.diskcache.appends] and
    [exec.diskcache.recovered_bytes] (bytes dropped by tail recovery
    at open). *)

type t

type stats = {
  entries : int;  (** distinct keys currently indexed *)
  log_bytes : int;  (** valid bytes in the log, header included *)
  appended : int;  (** records appended through this handle *)
  recovered_bytes : int;
      (** bytes dropped at {!open_} by truncated-tail / bad-CRC
          recovery (0 for a clean log) *)
}

val open_ : ?readonly:bool -> string -> t
(** [open_ dir] opens (creating the directory and an empty log if
    needed) the cache at [dir], recovering from a torn tail as
    described above.  Raises [Failure] if another writer holds the
    directory, if the file magic is wrong, or [Sys_error]/[Unix_error]
    on I/O failure.  [readonly] (default [false]) skips the lock and
    the recovery truncation and refuses {!add}. *)

val find : t -> key:string -> string option

val add : t -> key:string -> string -> unit
(** Append one record and update the index; flushed to the OS before
    returning, so a record is durable (modulo [fsync]) once [add]
    returns.  A key already present is a no-op.  Raises
    [Invalid_argument] on a read-only handle. *)

val stats : t -> stats

val close : t -> unit
(** Flush, release the writer lock, close.  Idempotent; the handle is
    unusable afterwards. *)

val verify : string -> (stats, string) result
(** Offline integrity scan of [dir] (read-only, never modifies the
    log): [Ok stats] if every byte of the log parses and checksums,
    [Error msg] naming the offset and defect of the first bad record
    (and how many trailing bytes a writable {!open_} would drop). *)
