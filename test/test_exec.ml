(* Tests for Mcml_exec: the domain pool (futures, ordering, exceptions,
   deadlines, reuse) and the content-addressed memo cache (hits, misses,
   eviction, collision safety), plus the end-to-end determinism contract:
   a parallel experiment run equals the sequential one. *)

open Mcml_exec
open Mcml_props

let check = Alcotest.check

(* --- pool -------------------------------------------------------------- *)

let pool_map_list_ordering () =
  Pool.with_pool ~jobs:4 @@ fun p ->
  let xs = List.init 50 (fun i -> i + 1) in
  let squares = Pool.map_list p (fun x -> x * x) xs in
  check
    Alcotest.(list int)
    "results in input order" (List.map (fun x -> x * x) xs) squares

let pool_sequential_identity () =
  Pool.with_pool ~jobs:1 @@ fun p ->
  (* jobs=1 runs inline at submit time: side effects happen in
     submission order, before await *)
  let log = ref [] in
  let futs =
    List.map (fun i -> Pool.submit p (fun () -> log := i :: !log; i)) [ 1; 2; 3 ]
  in
  check Alcotest.(list int) "inline submission order" [ 3; 2; 1 ] !log;
  check Alcotest.(list int) "await order" [ 1; 2; 3 ] (List.map Pool.await futs)

(* all_some: without a pool the thunks run in order and stop at the
   first None; with one they run as one batch (every thunk, even after a
   None) and the answer is the same *)
let pool_all_some () =
  let calls = Array.init 3 (fun _ -> Atomic.make 0) in
  let thunk i v () =
    Atomic.incr calls.(i);
    v
  in
  let ran () = Array.to_list (Array.map Atomic.get calls) in
  let thunks = [ thunk 0 (Some 10); thunk 1 None; thunk 2 (Some 30) ] in
  check Alcotest.(option (list int)) "sequential: a None wins" None (Pool.all_some thunks);
  check Alcotest.(list int) "sequential: stops at the first None" [ 1; 1; 0 ] (ran ());
  Pool.with_pool ~jobs:4 (fun p ->
      check Alcotest.(option (list int)) "batch: a None wins" None (Pool.all_some ~pool:p thunks);
      check Alcotest.(list int) "batch: every thunk ran" [ 2; 2; 1 ] (ran ());
      check Alcotest.(option (list int)) "batch: results in input order"
        (Some [ 10; 20; 30 ])
        (Pool.all_some ~pool:p [ thunk 0 (Some 10); thunk 1 (Some 20); thunk 2 (Some 30) ]))

let pool_exception_propagation () =
  Pool.with_pool ~jobs:4 @@ fun p ->
  let fut = Pool.submit p (fun () -> failwith "boom") in
  (match Pool.await fut with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg -> check Alcotest.string "message" "boom" msg);
  (* await is idempotent on failed futures *)
  match Pool.await fut with
  | _ -> Alcotest.fail "expected Failure again"
  | exception Failure _ -> ()

let pool_reuse_across_batches () =
  Pool.with_pool ~jobs:3 @@ fun p ->
  let b1 = Pool.map_list p (fun x -> x + 1) (List.init 20 Fun.id) in
  let b2 = Pool.map_list p (fun x -> x * 2) (List.init 20 Fun.id) in
  check Alcotest.(list int) "batch 1" (List.init 20 (fun i -> i + 1)) b1;
  check Alcotest.(list int) "batch 2" (List.init 20 (fun i -> i * 2)) b2

let pool_nested_submission () =
  (* a task that itself submits to the same pool and awaits: the
     help-first await / caller-runs overflow must keep this live even
     with a tiny queue *)
  Pool.with_pool ~jobs:2 ~queue_bound:1 @@ fun p ->
  let outer =
    Pool.map_list p
      (fun i ->
        let inner = Pool.map_list p (fun j -> (10 * i) + j) [ 1; 2; 3 ] in
        List.fold_left ( + ) 0 inner)
      [ 1; 2; 3; 4 ]
  in
  check
    Alcotest.(list int)
    "nested sums"
    [ 36; 66; 96; 126 ]
    outer

(* --- memo -------------------------------------------------------------- *)

let memo_hit_miss () =
  let m = Memo.create ~name:"test.memo" () in
  let calls = ref 0 in
  let compute () = incr calls; !calls in
  check Alcotest.int "first: computes" 1 (Memo.find_or_add m ~key:(Memo.key "a") compute);
  check Alcotest.int "second: cached" 1 (Memo.find_or_add m ~key:(Memo.key "a") compute);
  check Alcotest.int "other key: computes" 2 (Memo.find_or_add m ~key:(Memo.key "b") compute);
  let s = Memo.stats m in
  check Alcotest.int "hits" 1 s.Memo.hits;
  check Alcotest.int "misses" 2 s.Memo.misses;
  check Alcotest.int "size" 2 s.Memo.size;
  check Alcotest.int "evictions" 0 s.Memo.evictions

let memo_eviction () =
  let m = Memo.create ~capacity:3 ~name:"test.memo" () in
  List.iter (fun k -> Memo.add m ~key:(Memo.key k) k) [ "a"; "b"; "c"; "d"; "e" ];
  let s = Memo.stats m in
  check Alcotest.int "bounded" 3 s.Memo.size;
  check Alcotest.int "evicted FIFO" 2 s.Memo.evictions;
  (* oldest gone, newest present *)
  check Alcotest.(option string) "a evicted" None (Memo.find m ~key:(Memo.key "a"));
  check Alcotest.(option string) "e present" (Some "e") (Memo.find m ~key:(Memo.key "e"))

(* Two distinct texts of equal [Hashtbl.hash], the hash [Memo.key]
   keeps: a birthday search over its 30 bits takes some 2^15 texts. *)
let colliding_texts () =
  let seen = Hashtbl.create 65536 in
  let rec search i =
    let text = "k" ^ string_of_int i in
    let h = Hashtbl.hash text in
    match Hashtbl.find_opt seen h with
    | Some other -> (other, text)
    | None ->
        Hashtbl.add seen h text;
        search (i + 1)
  in
  search 0

let memo_collision_safety () =
  (* two texts of one hash share a slot: comparing the full text must
     still keep the entries apart *)
  let t1, t2 = colliding_texts () in
  check Alcotest.int "one hash" (Hashtbl.hash t1) (Hashtbl.hash t2);
  let m = Memo.create ~name:"test.memo" () in
  Memo.add m ~key:(Memo.key t1) 1;
  Memo.add m ~key:(Memo.key t2) 2;
  check Alcotest.(option int) "first text" (Some 1) (Memo.find m ~key:(Memo.key t1));
  check Alcotest.(option int) "second text" (Some 2) (Memo.find m ~key:(Memo.key t2));
  check Alcotest.(option int) "a third text is absent" None
    (Memo.find m ~key:(Memo.key "absent"));
  check Alcotest.int "two entries" 2 (Memo.stats m).Memo.size

let memo_add_first_wins () =
  let m = Memo.create ~name:"test.memo" () in
  Memo.add m ~key:(Memo.key "k") 1;
  Memo.add m ~key:(Memo.key "k") 2;
  check Alcotest.(option int) "first insert wins" (Some 1) (Memo.find m ~key:(Memo.key "k"))

let memo_replace_usable () =
  let m = Memo.create ~capacity:2 ~name:"test.memo" () in
  Memo.add m ~key:(Memo.key "a") 1;
  Memo.add m ~key:(Memo.key "b") 2;
  Memo.add m ~key:(Memo.key "a") 3 ~replace:(fun v -> v > 1);
  check Alcotest.(option int) "replace declined" (Some 1) (Memo.find m ~key:(Memo.key "a"));
  Memo.add m ~key:(Memo.key "a") 3 ~replace:(fun v -> v = 1);
  check Alcotest.(option int) "replaced" (Some 3) (Memo.find m ~key:(Memo.key "a"));
  check Alcotest.(option int) "unusable reads as absent" None
    (Memo.find m ~key:(Memo.key "a") ~usable:(fun v -> v < 3));
  (* a replaced key keeps its place: it is still the oldest *)
  Memo.add m ~key:(Memo.key "c") 4;
  check Alcotest.(option int) "a evicted first" None (Memo.find m ~key:(Memo.key "a"));
  let s = Memo.stats m in
  check Alcotest.int "size" 2 s.Memo.size;
  check Alcotest.int "an unusable value is a miss" 2 s.Memo.misses;
  check Alcotest.int "hits" 2 s.Memo.hits

(* The per-key rule of [find_or_add], across domains.  [wait_until]
   polls a flag another domain sets, and gives up after 10 s.  [spawn f]
   runs [f] on a new domain and returns its join, which also gives up
   after 10 s, so a caller left waiting fails the test instead of
   hanging it. *)
let wait_until p =
  let t0 = Unix.gettimeofday () in
  while not (p ()) do
    if Unix.gettimeofday () -. t0 > 10.0 then Alcotest.fail "timed out waiting on another domain";
    Unix.sleepf 0.001
  done

let spawn f =
  let finished = Atomic.make false in
  let d = Domain.spawn (fun () -> Fun.protect ~finally:(fun () -> Atomic.set finished true) f) in
  fun () ->
    wait_until (fun () -> Atomic.get finished);
    Domain.join d

let memo_one_compile_per_key () =
  let m = Memo.create ~name:"test.memo" () in
  let n = 4 in
  let arrived = Atomic.make 0 and computes = Atomic.make 0 in
  let compute () =
    Atomic.incr computes;
    (* hold the key until every caller has asked for it *)
    wait_until (fun () -> Atomic.get arrived = n);
    Unix.sleepf 0.02;
    "form"
  in
  let ask () =
    Atomic.incr arrived;
    Memo.find_or_add m ~key:(Memo.key "k") compute
  in
  let got = List.map (fun join -> join ()) (List.init n (fun _ -> spawn ask)) in
  check Alcotest.(list string) "every caller gets the value" (List.init n (fun _ -> "form")) got;
  check Alcotest.int "one compile" 1 (Atomic.get computes);
  let s = Memo.stats m in
  check Alcotest.int "one miss" 1 s.Memo.misses;
  check Alcotest.int "the other callers hit" (n - 1) s.Memo.hits

let memo_timeout_not_inherited () =
  (* the first caller compiles with no budget left and times out while a
     second caller waits on the key; the second then compiles with its
     own, larger budget and answers *)
  let open Mcml_counting in
  let cnf = Mcml_logic.Cnf.make ~nvars:3 [ [| Mcml_logic.Lit.pos 1; Mcml_logic.Lit.pos 2 |] ] in
  let m : Exact.Dnnf.t Memo.t = Memo.create ~name:"test.memo" () in
  let claimed = Atomic.make false and waiting = Atomic.make false in
  let first =
    spawn (fun () ->
        match
          Memo.find_or_add m ~key:(Memo.key "k") (fun () ->
              Atomic.set claimed true;
              wait_until (fun () -> Atomic.get waiting);
              Unix.sleepf 0.02;
              Exact.Dnnf.compile ~budget:0.0 cnf)
        with
        | _ -> false
        | exception Exact.Timeout -> true)
  in
  wait_until (fun () -> Atomic.get claimed);
  let second =
    spawn (fun () ->
        Atomic.set waiting true;
        Memo.find_or_add m ~key:(Memo.key "k") (fun () -> Exact.Dnnf.compile ~budget:60.0 cnf))
  in
  check Alcotest.bool "the first caller times out" true (first ());
  let form = second () in
  check Alcotest.string "the waiting caller compiles and answers" "6"
    (Mcml_logic.Bignat.to_string (Exact.Dnnf.total form));
  check Alcotest.bool "its form is kept" true
    (match Memo.find m ~key:(Memo.key "k") with Some f -> f == form | None -> false);
  check Alcotest.int "two compiles ran, one miss each" 2 (Memo.stats m).Memo.misses

let memo_hit_while_compiling () =
  let m = Memo.create ~name:"test.memo" () in
  Memo.add m ~key:(Memo.key "kept") 1;
  let started = Atomic.make false and release = Atomic.make false in
  let slow =
    spawn (fun () ->
        Memo.find_or_add m ~key:(Memo.key "slow") (fun () ->
            Atomic.set started true;
            wait_until (fun () -> Atomic.get release);
            2))
  in
  wait_until (fun () -> Atomic.get started);
  check Alcotest.int "a kept key answers while another compiles" 1
    (Memo.find_or_add m ~key:(Memo.key "kept") (fun () -> Alcotest.fail "a kept key was recomputed"));
  check Alcotest.int "another absent key compiles meanwhile" 3
    (Memo.find_or_add m ~key:(Memo.key "other") (fun () -> 3));
  Atomic.set release true;
  check Alcotest.int "the slow key" 2 (slow ())

(* --- disk cache --------------------------------------------------------- *)

let fresh_dir () =
  let d = Filename.temp_file "mcml_diskcache" "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let log_file dir = Filename.concat dir "cache.log"

let flip_byte path off =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd

let diskcache_restart_roundtrip () =
  let dir = fresh_dir () in
  let dc = Diskcache.open_ dir in
  Diskcache.add dc ~key:"k1" "v1";
  Diskcache.add dc ~key:"k2" "v2";
  Diskcache.add dc ~key:"k1" "ignored";
  check Alcotest.(option string) "find k1" (Some "v1") (Diskcache.find dc ~key:"k1");
  check Alcotest.int "first insert wins" 2 (Diskcache.stats dc).Diskcache.entries;
  Diskcache.close dc;
  (* a restarted handle serves everything from disk *)
  let dc2 = Diskcache.open_ dir in
  check Alcotest.(option string) "k1 survives restart" (Some "v1")
    (Diskcache.find dc2 ~key:"k1");
  check Alcotest.(option string) "k2 survives restart" (Some "v2")
    (Diskcache.find dc2 ~key:"k2");
  let s = Diskcache.stats dc2 in
  check Alcotest.int "entries" 2 s.Diskcache.entries;
  check Alcotest.int "clean log: nothing recovered" 0 s.Diskcache.recovered_bytes;
  Diskcache.close dc2;
  (match Diskcache.verify dir with
  | Ok s -> check Alcotest.int "verify agrees" 2 s.Diskcache.entries
  | Error msg -> Alcotest.failf "verify of a clean log failed: %s" msg)

let diskcache_truncated_tail () =
  let dir = fresh_dir () in
  let dc = Diskcache.open_ dir in
  Diskcache.add dc ~key:"a" "alpha";
  Diskcache.add dc ~key:"b" "beta";
  Diskcache.close dc;
  (* crash mid-append: chop bytes off the last record *)
  let path = log_file dir in
  let size = (Unix.stat path).Unix.st_size in
  Unix.truncate path (size - 3);
  (match Diskcache.verify dir with
  | Ok _ -> Alcotest.fail "verify accepted a torn tail"
  | Error _ -> ());
  let dc2 = Diskcache.open_ dir in
  let s = Diskcache.stats dc2 in
  check Alcotest.int "valid prefix served" 1 s.Diskcache.entries;
  check Alcotest.(option string) "a intact" (Some "alpha")
    (Diskcache.find dc2 ~key:"a");
  check Alcotest.(option string) "torn record dropped" None
    (Diskcache.find dc2 ~key:"b");
  check Alcotest.bool "recovery accounted" true (s.Diskcache.recovered_bytes > 0);
  (* the writable open truncated the tail: appends work and verify is
     clean again *)
  Diskcache.add dc2 ~key:"c" "gamma";
  Diskcache.close dc2;
  (match Diskcache.verify dir with
  | Ok s -> check Alcotest.int "log clean after recovery + append" 2 s.Diskcache.entries
  | Error msg -> Alcotest.failf "recovered log fails verify: %s" msg)

let diskcache_flipped_crc_byte () =
  let dir = fresh_dir () in
  let dc = Diskcache.open_ dir in
  Diskcache.add dc ~key:"a" "alpha";
  let prefix = (Diskcache.stats dc).Diskcache.log_bytes in
  Diskcache.add dc ~key:"b" "beta";
  Diskcache.add dc ~key:"c" "gamma";
  Diskcache.close dc;
  (* bit rot inside the second record: it and everything after must be
     dropped, everything before served *)
  flip_byte (log_file dir) (prefix + 9);
  (match Diskcache.verify dir with
  | Ok _ -> Alcotest.fail "verify accepted a corrupt record"
  | Error msg ->
      check Alcotest.bool "error names an offset" true
        (String.length msg > 0));
  let dc2 = Diskcache.open_ dir in
  check Alcotest.int "prefix before corruption served" 1
    (Diskcache.stats dc2).Diskcache.entries;
  check Alcotest.(option string) "a intact" (Some "alpha")
    (Diskcache.find dc2 ~key:"a");
  check Alcotest.(option string) "corrupt record dropped" None
    (Diskcache.find dc2 ~key:"b");
  Diskcache.close dc2

let diskcache_readonly_and_lock () =
  let dir = fresh_dir () in
  let dc = Diskcache.open_ dir in
  Diskcache.add dc ~key:"k" "v";
  (* a second writer is refused while the first holds the directory *)
  (match Diskcache.open_ dir with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "second writer accepted");
  (* a read-only open takes no lock and refuses writes *)
  let ro = Diskcache.open_ ~readonly:true dir in
  check Alcotest.(option string) "readonly sees the writer's record" (Some "v")
    (Diskcache.find ro ~key:"k");
  (match Diskcache.add ro ~key:"x" "y" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "readonly add accepted");
  Diskcache.close ro;
  Diskcache.close dc

let diskcache_concurrent_reader () =
  (* a reader opening the directory mid-append must always observe a
     valid prefix: entry counts only grow, every indexed key finds its
     value, and no open ever fails *)
  let dir = fresh_dir () in
  let dc = Diskcache.open_ dir in
  let writer_done = Atomic.make false in
  let seen = Atomic.make 0 in
  let reader =
    Thread.create
      (fun () ->
        let last = ref 0 in
        while not (Atomic.get writer_done) do
          let ro = Diskcache.open_ ~readonly:true dir in
          let n = (Diskcache.stats ro).Diskcache.entries in
          if n < !last then
            Alcotest.failf "entries went backwards: %d after %d" n !last;
          last := n;
          for i = 0 to n - 1 do
            let key = Printf.sprintf "k%d" i in
            match Diskcache.find ro ~key with
            | Some v ->
                if v <> String.make 64 'x' then
                  Alcotest.failf "reader saw garbage for %s" key
            | None -> Alcotest.failf "indexed key %s missing" key
          done;
          Diskcache.close ro;
          Atomic.set seen (max (Atomic.get seen) n);
          Thread.yield ()
        done)
      ()
  in
  for i = 0 to 49 do
    Diskcache.add dc ~key:(Printf.sprintf "k%d" i) (String.make 64 'x')
  done;
  Atomic.set writer_done true;
  Thread.join reader;
  Diskcache.close dc;
  let ro = Diskcache.open_ ~readonly:true dir in
  check Alcotest.int "final reader sees every record" 50
    (Diskcache.stats ro).Diskcache.entries;
  Diskcache.close ro

let diskcache_backs_memo () =
  (* the restart-replay contract: a fresh memo over a populated disk
     tier serves old keys as (backing) hits — zero misses *)
  let dir = fresh_dir () in
  let backing dc =
    {
      Memo.load = (fun key -> Diskcache.find dc ~key);
      store = (fun key v -> Diskcache.add dc ~key v);
    }
  in
  let dc = Diskcache.open_ dir in
  let m = Memo.create ~backing:(backing dc) ~name:"test.backed" () in
  Memo.add m ~key:(Memo.key "a") "1";
  Memo.add m ~key:(Memo.key "b") "2";
  Diskcache.close dc;
  let dc2 = Diskcache.open_ dir in
  let m2 = Memo.create ~backing:(backing dc2) ~name:"test.backed" () in
  check Alcotest.(option string) "a replayed" (Some "1") (Memo.find m2 ~key:(Memo.key "a"));
  check Alcotest.(option string) "b replayed" (Some "2") (Memo.find m2 ~key:(Memo.key "b"));
  (* promoted: the second lookup is a memory hit, not a disk read *)
  check Alcotest.(option string) "a promoted" (Some "1") (Memo.find m2 ~key:(Memo.key "a"));
  let s = Memo.stats m2 in
  check Alcotest.int "zero misses on replay" 0 s.Memo.misses;
  check Alcotest.int "hits" 3 s.Memo.hits;
  check Alcotest.int "backing-tier hits" 2 s.Memo.backing_hits;
  Diskcache.close dc2

(* --- counter cache ------------------------------------------------------ *)

let small_cnf () =
  let prop = Props.find_exn "Reflexive" in
  let analyzer = Props.analyzer ~scope:3 in
  Mcml_alloy.Analyzer.cnf analyzer ~pred:prop.Props.pred

(* The count-cache key texts of [small_cnf], pinned byte for byte:
   disk records that earlier builds keyed by them must keep answering. *)
let small_key_exact = "exact|n=10|p=1,2,3,4,5,6,7,8,9,|2 21 ;10 21 ;18 21 ;3 11 19 20 ;20 ;"

let small_key_approx =
  "approx(0x1.999999999999ap-1,0x1.999999999999ap-3,1,-,0)|n=10|p=1,2,3,4,5,6,7,8,9,|2 21 \
   ;10 21 ;18 21 ;3 11 19 20 ;20 ;"

let approx1 = Mcml_counting.(Counter.Approx { Approx.default with Approx.seed = 1 })

let counter_cache_roundtrip () =
  let open Mcml_counting in
  let q = Counter.query ~backend:Counter.Exact (small_cnf ()) in
  let cache = Counter.cache_create () in
  let o1 = Counter.count ~budget:30.0 ~cache q in
  let o2 = Counter.count ~budget:30.0 ~cache q in
  let count o = Mcml_logic.Bignat.to_string (Option.get o).Counter.count in
  check Alcotest.string "same count" (count o1) (count o2);
  check Alcotest.(float 0.0) "hit returns the stored outcome"
    (Option.get o1).Counter.time (Option.get o2).Counter.time;
  let s = Counter.cache_stats cache in
  check Alcotest.int "one miss" 1 s.Mcml_exec.Memo.misses;
  check Alcotest.int "one hit" 1 s.Mcml_exec.Memo.hits

let counter_cache_key_pinned () =
  let open Mcml_counting in
  let key backend = Counter.cache_key (Counter.query ~backend (small_cnf ())) in
  check Alcotest.string "exact" small_key_exact (key Counter.Exact);
  check Alcotest.string "approx, seed 1" small_key_approx (key approx1);
  (* the key is built once and kept: asking again returns the same text *)
  let q = Counter.query ~backend:Counter.Exact (small_cnf ()) in
  check Alcotest.bool "kept" true (Counter.cache_key q == Counter.cache_key q)

let counter_cache_content_addressed () =
  let open Mcml_counting in
  let cache = Counter.cache_create () in
  let count q = check Alcotest.bool "counted" true (Counter.count ~cache q <> None) in
  (* two separately built, structurally equal CNFs: one entry *)
  count (Counter.query ~backend:Counter.Exact (small_cnf ()));
  count (Counter.query ~backend:Counter.Exact (small_cnf ()));
  let s = Counter.cache_stats cache in
  check Alcotest.int "equal CNFs: one miss" 1 s.Memo.misses;
  check Alcotest.int "equal CNFs: the second is a hit" 1 s.Memo.hits;
  (* one CNF under two backends: two entries *)
  let cnf = small_cnf () in
  count (Counter.query ~backend:Counter.Exact cnf);
  count (Counter.query ~backend:approx1 cnf);
  let s = Counter.cache_stats cache in
  check Alcotest.int "exact and approx do not share" 2 s.Memo.misses;
  check Alcotest.int "two entries" 2 s.Memo.size

let counter_cache_key_distinguishes () =
  let open Mcml_counting in
  let cnf = small_cnf () in
  let k b = Counter.cache_key (Counter.query ~backend:b cnf) in
  let approx seed = Counter.Approx { Approx.default with Approx.seed } in
  Alcotest.(check bool)
    "backends differ" false
    (k Counter.Exact = k (approx 1));
  Alcotest.(check bool) "seeds differ" false (k (approx 1) = k (approx 2));
  Alcotest.(check bool)
    "same query, same key" true
    (k Counter.Exact = k Counter.Exact);
  (* a budget decides only whether a count finishes, so a count made
     under one budget answers a call under another *)
  let cache = Counter.cache_create () in
  let q = Counter.query ~backend:Counter.Exact cnf in
  let count budget = Counter.count ~budget ~cache q in
  check Alcotest.bool "budget 30 completes" true (count 30.0 <> None);
  check Alcotest.bool "budget 31 is answered" true (count 31.0 <> None);
  let s = Counter.cache_stats cache in
  check Alcotest.int "budgets share a key: one miss" 1 s.Memo.misses;
  check Alcotest.int "budgets share a key: one hit" 1 s.Memo.hits

let counter_cache_disk_keeps_answers () =
  (* a timeout depends on the load and the clock: the disk never records
     one, and a "t" record an older build wrote reads as absent, so the
     count is made again.  In memory a timeout answers only a call with
     no more budget.  A completed count answers any budget, after a
     restart too. *)
  let open Mcml_counting in
  let cnf = small_cnf () in
  let q = Counter.query ~backend:Counter.Exact cnf in
  let key = Counter.cache_key q in
  let count ~cache budget = Counter.count ~budget ~cache q in
  let dir = fresh_dir () in
  let dc = Diskcache.open_ dir in
  let cache = Counter.cache_create ~disk:dc () in
  check Alcotest.bool "budget 0 times out" true (count ~cache 0.0 = None);
  check Alcotest.(option string) "no timeout on disk" None (Diskcache.find dc ~key);
  check Alcotest.bool "budget 0 again times out" true (count ~cache 0.0 = None);
  check Alcotest.int "from memory" 1 (Counter.cache_stats cache).Memo.hits;
  check Alcotest.bool "budget 30 completes" true (count ~cache 30.0 <> None);
  check Alcotest.int "budget 30 missed and counted" 2 (Counter.cache_stats cache).Memo.misses;
  check Alcotest.bool "the count now answers budget 0" true (count ~cache 0.0 <> None);
  let s = Counter.cache_stats cache in
  check Alcotest.int "it replaced the timeout" 1 s.Memo.size;
  check Alcotest.int "two hits" 2 s.Memo.hits;
  let brute = Counter.query ~backend:Counter.Brute cnf in
  Diskcache.add dc ~key:(Counter.cache_key brute) "t";
  Diskcache.close dc;
  let dc2 = Diskcache.open_ dir in
  check Alcotest.bool "the completed count is kept" true
    (Diskcache.find dc2 ~key <> None);
  let cache2 = Counter.cache_create ~disk:dc2 () in
  check Alcotest.bool "it answers a third budget" true (count ~cache:cache2 7.0 <> None);
  let s = Counter.cache_stats cache2 in
  check Alcotest.int "from disk, not recounted" 1 s.Memo.backing_hits;
  check Alcotest.int "no miss" 0 s.Memo.misses;
  check Alcotest.bool "an old timeout record is counted again" true
    (Counter.count ~budget:7.0 ~cache:cache2 brute <> None);
  check Alcotest.int "a miss, not a hit" 1 (Counter.cache_stats cache2).Memo.misses;
  Diskcache.close dc2

(* --- jobs=1 ≡ jobs=4 on a small Table-1 slice --------------------------- *)

let slice_cfg pool cache =
  {
    Mcml.Experiments.fast with
    Mcml.Experiments.max_scope = 4;
    threshold = 50;
    max_positives = 400;
    budget = 10.0;
    properties = [ Props.find_exn "Reflexive"; Props.find_exn "PartialOrder" ];
    pool;
    cache;
  }

let parallel_equivalence () =
  let sequential = Mcml.Experiments.table1 (slice_cfg None None) in
  Pool.with_pool ~jobs:4 @@ fun p ->
  let cache = Mcml_counting.Counter.cache_create () in
  let parallel = Mcml.Experiments.table1 (slice_cfg (Some p) (Some cache)) in
  check Alcotest.bool "table1 rows identical at jobs=4 + cache" true
    (sequential = parallel);
  (* and again, warm cache: still identical *)
  let warm = Mcml.Experiments.table1 (slice_cfg (Some p) (Some cache)) in
  check Alcotest.bool "warm-cache rerun identical" true (sequential = warm);
  let s = Mcml_counting.Counter.cache_stats cache in
  Alcotest.(check bool) "warm rerun hit the cache" true (s.Mcml_exec.Memo.hits > 0)

(* --- trace well-formedness under parallelism ----------------------------- *)

let traced_run ~jobs path =
  let open Mcml_obs in
  Obs.set_sink (Obs.jsonl path);
  Fun.protect ~finally:(fun () ->
      Obs.flush ();
      Obs.set_sink Obs.null;
      Obs.reset_counters ())
  @@ fun () ->
  (* no count cache: at jobs>1 two identical in-flight queries can both
     miss and spawn extra count spans, which is legitimate but makes the
     forest shape nondeterministic — the shape contract is cache-free *)
  if jobs = 1 then ignore (Mcml.Experiments.table1 (slice_cfg None None))
  else
    Pool.with_pool ~jobs @@ fun p ->
    ignore (Mcml.Experiments.table1 (slice_cfg (Some p) None))

let with_temp_trace f =
  let path = Filename.temp_file "mcml_trace_test" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let trace_well_formed_at_jobs4 () =
  let open Mcml_obs in
  with_temp_trace @@ fun path ->
  traced_run ~jobs:4 path;
  match Trace.load path with
  | Error errs ->
      Alcotest.failf "jobs=4 trace is not well-formed:\n%s" (String.concat "\n" errs)
  | Ok t ->
      (* Trace.load already enforces balanced start/end per id, resolvable
         (non-forward, non-self) parents, and no duplicate ids; assert the
         forest is non-trivial and every recorded domain really ran spans *)
      check Alcotest.bool "has spans" true (t.Trace.num_spans > 0);
      check Alcotest.bool "has roots" true (t.Trace.roots <> []);
      List.iter
        (fun (_dom, spans, _ms) ->
          check Alcotest.bool "every domain ran spans" true (spans > 0))
        t.Trace.domains;
      (* workers parent under the submitter: worker-domain spans must not
         all be roots.  With 4 domains the trace has >1 domain unless the
         machine is too loaded to spawn any worker, which with_pool forbids *)
      check Alcotest.bool "more than one domain traced" true
        (List.length t.Trace.domains > 1)

let trace_shape_matches_sequential () =
  let open Mcml_obs in
  with_temp_trace @@ fun p1 ->
  with_temp_trace @@ fun p4 ->
  traced_run ~jobs:1 p1;
  traced_run ~jobs:4 p4;
  let shape path =
    match Trace.load path with
    | Ok t -> Trace.shape t
    | Error errs -> Alcotest.failf "trace %s invalid:\n%s" path (String.concat "\n" errs)
  in
  check Alcotest.string "same span forest shape at jobs=1 and jobs=4" (shape p1) (shape p4)

let trace_profile_folded () =
  let open Mcml_obs in
  with_temp_trace @@ fun path ->
  traced_run ~jobs:1 path;
  match Trace.load path with
  | Error errs ->
      Alcotest.failf "trace invalid:\n%s" (String.concat "\n" errs)
  | Ok t ->
      let selfs = Trace.self_times t in
      let folded = Trace.folded t in
      check Alcotest.bool "has self-time rows" true (selfs <> []);
      List.iter
        (fun (_, calls, self) ->
          check Alcotest.bool "calls positive" true (calls > 0);
          check Alcotest.bool "self time non-negative" true (self >= 0.0))
        selfs;
      let rec desc = function
        | (_, _, a) :: ((_, _, b) :: _ as rest) -> a >= b && desc rest
        | _ -> true
      in
      check Alcotest.bool "self_times sorted by self time desc" true (desc selfs);
      (* the profiler's accounting identity: folded stacks carry the
         same total self time the flat table reports, and neither
         exceeds the wall time of the roots *)
      let total_self = List.fold_left (fun a (_, _, s) -> a +. s) 0.0 selfs in
      let total_folded = List.fold_left (fun a (_, s) -> a +. s) 0.0 folded in
      check Alcotest.bool "folded accounts for >= 99% of self time" true
        (total_self > 0.0 && total_folded >= 0.99 *. total_self);
      check Alcotest.bool "folded never exceeds self time" true
        (total_folded <= total_self +. 1e-6);
      let root_ms =
        List.fold_left (fun a r -> a +. r.Trace.dur_ms) 0.0 t.Trace.roots
      in
      check Alcotest.bool "self time bounded by root wall time" true
        (total_self <= root_ms +. 1e-6);
      (* every folded path is well-formed: sorted, unique, and its leaf
         names a span the flat table knows *)
      let paths = List.map fst folded in
      check Alcotest.bool "paths sorted and unique" true
        (paths = List.sort_uniq compare paths);
      List.iter
        (fun (p, _) ->
          check Alcotest.bool "non-empty path" true (String.length p > 0);
          let leaf =
            match String.rindex_opt p ';' with
            | Some i -> String.sub p (i + 1) (String.length p - i - 1)
            | None -> p
          in
          check Alcotest.bool
            (Printf.sprintf "leaf %S is a known span name" leaf)
            true
            (List.exists (fun (n, _, _) -> n = leaf) selfs))
        folded

let () =
  Alcotest.run "mcml_exec"
    [
      ( "pool",
        [
          Alcotest.test_case "map_list ordering" `Quick pool_map_list_ordering;
          Alcotest.test_case "sequential identity" `Quick pool_sequential_identity;
          Alcotest.test_case "all_some" `Quick pool_all_some;
          Alcotest.test_case "exception propagation" `Quick pool_exception_propagation;
          Alcotest.test_case "reuse across batches" `Quick pool_reuse_across_batches;
          Alcotest.test_case "nested submission" `Quick pool_nested_submission;
        ] );
      ( "memo",
        [
          Alcotest.test_case "hit/miss accounting" `Quick memo_hit_miss;
          Alcotest.test_case "FIFO eviction" `Quick memo_eviction;
          Alcotest.test_case "collision safety" `Quick memo_collision_safety;
          Alcotest.test_case "first insert wins" `Quick memo_add_first_wins;
          Alcotest.test_case "replace and usable" `Quick memo_replace_usable;
          Alcotest.test_case "one compile per key across domains" `Quick memo_one_compile_per_key;
          Alcotest.test_case "a timeout is not inherited" `Quick memo_timeout_not_inherited;
          Alcotest.test_case "a hit does not wait on another key" `Quick memo_hit_while_compiling;
        ] );
      ( "diskcache",
        [
          Alcotest.test_case "restart roundtrip" `Quick diskcache_restart_roundtrip;
          Alcotest.test_case "truncated tail" `Quick diskcache_truncated_tail;
          Alcotest.test_case "flipped CRC byte" `Quick diskcache_flipped_crc_byte;
          Alcotest.test_case "readonly + writer lock" `Quick diskcache_readonly_and_lock;
          Alcotest.test_case "concurrent reader" `Quick diskcache_concurrent_reader;
          Alcotest.test_case "backs the memo tier" `Quick diskcache_backs_memo;
        ] );
      ( "count-cache",
        [
          Alcotest.test_case "roundtrip" `Quick counter_cache_roundtrip;
          Alcotest.test_case "key text pinned" `Quick counter_cache_key_pinned;
          Alcotest.test_case "content addressed, per backend" `Quick
            counter_cache_content_addressed;
          Alcotest.test_case "key distinguishes queries" `Quick counter_cache_key_distinguishes;
          Alcotest.test_case "disk keeps answers, not timeouts" `Quick
            counter_cache_disk_keeps_answers;
        ] );
      ( "determinism",
        [ Alcotest.test_case "jobs=1 = jobs=4" `Slow parallel_equivalence ] );
      ( "tracing",
        [
          Alcotest.test_case "jobs=4 trace well-formed" `Slow trace_well_formed_at_jobs4;
          Alcotest.test_case "forest shape = sequential" `Slow trace_shape_matches_sequential;
          Alcotest.test_case "profiler folded stacks" `Slow trace_profile_folded;
        ] );
    ]
