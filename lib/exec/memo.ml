module Obs = Mcml_obs.Obs

type key = { text : string; hash : int }

(* The one pass over the text a key ever takes; every lookup after it
   reads [hash]. *)
let key text = { text; hash = Hashtbl.hash text }
let text k = k.text

module Tbl = Hashtbl.Make (struct
  type t = key

  (* A caller that keeps its key hands back the very record it stored,
     so a hit costs no pass over the text.  Otherwise equal hashes still
     compare the full text: a collision is a miss, never a wrong value. *)
  let equal a b = a == b || (a.hash = b.hash && String.equal a.text b.text)
  let hash k = k.hash
end)

type 'a backing = {
  load : string -> 'a option;
  store : string -> 'a -> unit;
}

type 'a t = {
  name : string;
  capacity : int;
  backing : 'a backing option;
  m : Mutex.t;
  tbl : 'a Tbl.t;
  order : key Queue.t; (* FIFO for eviction *)
  (* keys a [find_or_add] caller is computing, and the waiters' wakeup *)
  pending : unit Tbl.t;
  settled : Condition.t;
  mutable size : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable backing_hits : int;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  backing_hits : int;
}

let create ?(capacity = 4096) ?backing ~name () =
  {
    name;
    capacity = max 1 capacity;
    backing;
    m = Mutex.create ();
    tbl = Tbl.create 256;
    order = Queue.create ();
    pending = Tbl.create 8;
    settled = Condition.create ();
    size = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    backing_hits = 0;
  }

let locked t f =
  Mutex.lock t.m;
  match f () with
  | v ->
      Mutex.unlock t.m;
      v
  | exception e ->
      Mutex.unlock t.m;
      raise e

let evict_oldest t =
  match Queue.take_opt t.order with
  | None -> ()
  | Some key ->
      Tbl.remove t.tbl key;
      t.size <- t.size - 1;
      t.evictions <- t.evictions + 1;
      Obs.add (t.name ^ ".evictions") 1

(* Memory-tier insert (no write-through); [true] if [v] was stored.  A
   replaced value keeps its key's place in the eviction order. *)
let insert ?(replace = fun _ -> false) t ~key v =
  locked t (fun () ->
      match Tbl.find_opt t.tbl key with
      | Some old -> replace old && (Tbl.replace t.tbl key v; true)
      | None ->
          Tbl.replace t.tbl key v;
          Queue.push key t.order;
          t.size <- t.size + 1;
          while t.size > t.capacity do
            evict_oldest t
          done;
          true)

let miss t =
  locked t (fun () -> t.misses <- t.misses + 1);
  Obs.add (t.name ^ ".misses") 1

let find ?(usable = fun _ -> true) t ~key =
  let timed = Obs.enabled () in
  let t0 = if timed then Obs.monotonic_s () else 0.0 in
  let mem_hit = locked t (fun () -> Tbl.find_opt t.tbl key) in
  let r =
    match mem_hit with
    | Some v when usable v ->
        locked t (fun () -> t.hits <- t.hits + 1);
        Obs.add (t.name ^ ".hits") 1;
        mem_hit
    | Some _ ->
        (* present but unusable to this caller: it must recompute *)
        miss t;
        None
    | None -> (
        (* the persistent tier is consulted outside the lock: disk I/O
           must not serialize unrelated lookups *)
        match Option.bind t.backing (fun b -> b.load key.text) with
        | Some v ->
            (* promote, and count as a hit: the answer was cached, just
               not in memory — the "misses" statistic means "had to be
               recomputed" to every consumer (and to the restart-replay
               acceptance check) *)
            ignore (insert t ~key v);
            locked t (fun () ->
                t.hits <- t.hits + 1;
                t.backing_hits <- t.backing_hits + 1);
            Obs.add (t.name ^ ".hits") 1;
            Obs.add (t.name ^ ".disk_hits") 1;
            Some v
        | None ->
            miss t;
            None)
  in
  if timed then
    Obs.observe (t.name ^ ".lookup_ms") ((Obs.monotonic_s () -. t0) *. 1000.0);
  r

let peek t ~key = locked t (fun () -> Tbl.find_opt t.tbl key)

let add ?replace t ~key v =
  if insert ?replace t ~key v then
    (* write-through outside the memo lock; the backing store is
       expected to make its own no-op-if-present decision *)
    Option.iter (fun b -> b.store key.text v) t.backing

(* The per-key rule.  Under the lock a caller either reads the memory
   tier, waits while another caller computes its key, or claims the key.
   The claimant computes outside the lock, so other keys hit and compute
   meanwhile.  If [f] raises, the claim is dropped and nothing is kept:
   each waiter wakes, finds the key absent and unclaimed, and the first
   to look claims it with its own [f]. *)
let find_or_add t ~key f =
  let rec claim () =
    match Tbl.find_opt t.tbl key with
    | Some v ->
        t.hits <- t.hits + 1;
        Some v
    | None when Tbl.mem t.pending key ->
        Condition.wait t.settled t.m;
        claim ()
    | None ->
        t.misses <- t.misses + 1;
        Tbl.replace t.pending key ();
        None
  in
  match locked t claim with
  | Some v ->
      Obs.add (t.name ^ ".hits") 1;
      v
  | None ->
      Obs.add (t.name ^ ".misses") 1;
      let settle () =
        locked t (fun () ->
            Tbl.remove t.pending key;
            Condition.broadcast t.settled)
      in
      Fun.protect ~finally:settle @@ fun () ->
      let v = f () in
      add t ~key v;
      v

let stats t =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        size = t.size;
        backing_hits = t.backing_hits;
      })
