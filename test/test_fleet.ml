(* Fleet layer: consistent-hash ring (determinism, balance, resize
   stability), single-flight dedup (one leader, shared exceptions,
   in-flight-only lifetime), routing keys, and the router against both
   fake and real in-process shard servers — including the subsystem's
   core economy claim: N concurrent identical cache-miss requests cost
   exactly one exact count. *)

open Mcml_fleet
module Json = Mcml_obs.Json
module Obs = Mcml_obs.Obs
module Protocol = Mcml_serve.Protocol
module Server = Mcml_serve.Server

let check = Alcotest.check

(* ---------------------------------------------------------------------- *)
(* Ring                                                                    *)
(* ---------------------------------------------------------------------- *)

let keys n = List.init n (Printf.sprintf "key-%d")

let ring_deterministic () =
  let a = Ring.create ~shards:4 () in
  let b = Ring.create ~shards:4 () in
  List.iter
    (fun k ->
      check Alcotest.int
        (Printf.sprintf "same shard for %s across rings" k)
        (Ring.shard a k) (Ring.shard b k))
    (keys 200)

let ring_covers_all_shards () =
  let r = Ring.create ~shards:4 () in
  let counts = Array.make 4 0 in
  List.iter
    (fun k ->
      let s = Ring.shard r k in
      check Alcotest.bool "shard in range" true (s >= 0 && s < 4);
      counts.(s) <- counts.(s) + 1)
    (keys 2000);
  Array.iteri
    (fun i c ->
      check Alcotest.bool (Printf.sprintf "shard %d owns some keys" i) true (c > 0))
    counts

let ring_resize_stability () =
  (* the point of consistent hashing: adding a shard re-homes ~1/n of
     the key space, not most of it (hash mod n would move ~4/5) *)
  let r4 = Ring.create ~shards:4 () in
  let r5 = Ring.create ~shards:5 () in
  let ks = keys 1000 in
  let moved =
    List.fold_left
      (fun acc k -> if Ring.shard r4 k <> Ring.shard r5 k then acc + 1 else acc)
      0 ks
  in
  check Alcotest.bool
    (Printf.sprintf "only a minority of keys moved (%d/1000)" moved)
    true
    (moved < 500)

let ring_rejects_no_shards () =
  match Ring.create ~shards:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "shards=0 accepted"

(* ---------------------------------------------------------------------- *)
(* Single-flight                                                           *)
(* ---------------------------------------------------------------------- *)

(* A gate the leader's thunk blocks on, so every concurrent caller has
   joined the flight before the outcome is published. *)
let make_gate () =
  let m = Mutex.create () and cv = Condition.create () and opened = ref false in
  let wait () =
    Mutex.lock m;
    while not !opened do
      Condition.wait cv m
    done;
    Mutex.unlock m
  and open_ () =
    Mutex.lock m;
    opened := true;
    Condition.broadcast cv;
    Mutex.unlock m
  in
  (wait, open_)

let single_flight_one_leader () =
  let sf = Single_flight.create ~name:"test.sf" () in
  let wait, open_gate = make_gate () in
  let calls = Atomic.make 0 in
  let results = Array.make 8 (0, false) in
  let threads =
    Array.init 8 (fun i ->
        Thread.create
          (fun () ->
            results.(i) <-
              Single_flight.run sf ~key:"k" (fun () ->
                  wait ();
                  Atomic.incr calls;
                  42))
          ())
  in
  Thread.delay 0.3;
  open_gate ();
  Array.iter Thread.join threads;
  check Alcotest.int "thunk ran once" 1 (Atomic.get calls);
  Array.iter
    (fun (v, _) -> check Alcotest.int "every caller got the outcome" 42 v)
    results;
  let leaders = Array.to_list results |> List.filter snd |> List.length in
  check Alcotest.int "exactly one leader" 1 leaders;
  let l, f = Single_flight.stats sf in
  check Alcotest.(pair int int) "stats: 1 leader, 7 followers" (1, 7) (l, f)

let single_flight_shares_exception () =
  let sf = Single_flight.create ~name:"test.sf.exn" () in
  let wait, open_gate = make_gate () in
  let failures = Atomic.make 0 in
  let threads =
    Array.init 4 (fun _ ->
        Thread.create
          (fun () ->
            match
              Single_flight.run sf ~key:"k" (fun () ->
                  wait ();
                  failwith "boom")
            with
            | _ -> ()
            | exception Failure msg when msg = "boom" -> Atomic.incr failures)
          ())
  in
  Thread.delay 0.3;
  open_gate ();
  Array.iter Thread.join threads;
  check Alcotest.int "every caller saw the leader's exception" 4
    (Atomic.get failures);
  (* the flight is gone: a fresh run leads again and can succeed *)
  let v, led = Single_flight.run sf ~key:"k" (fun () -> 7) in
  check Alcotest.(pair int bool) "flight unpublished after failure" (7, true)
    (v, led)

let single_flight_inflight_only () =
  let sf = Single_flight.create ~name:"test.sf.seq" () in
  let v1, led1 = Single_flight.run sf ~key:"k" (fun () -> 1) in
  let v2, led2 = Single_flight.run sf ~key:"k" (fun () -> 2) in
  check Alcotest.(pair int bool) "first run leads" (1, true) (v1, led1);
  check Alcotest.(pair int bool) "second run leads anew (no result caching)"
    (2, true) (v2, led2)

(* ---------------------------------------------------------------------- *)
(* Routing keys and the router                                             *)
(* ---------------------------------------------------------------------- *)

let count_req ?(id = Json.Null) ?trace ?deadline_ms ?(scope = 3)
    ?(budget = 30.0) name =
  {
    Protocol.id;
    trace;
    deadline_ms;
    kind =
      Protocol.Count
        {
          Protocol.prop = Mcml_props.Props.find_exn name;
          scope = Some scope;
          symmetry = false;
          negate = false;
          backend = Mcml_counting.Counter.Exact;
          budget;
          seed = 42;
        };
  }

let admin_req kind =
  { Protocol.id = Json.Null; trace = None; deadline_ms = None; kind }

let routing_key_properties () =
  let keys req =
    match Router.routing_keys req with
    | Some k -> k
    | None -> Alcotest.fail "count request has no routing key"
  in
  let key req = (keys req).Router.ring in
  let base = key (count_req "Reflexive") in
  check Alcotest.string "id does not shard"
    base
    (key (count_req ~id:(Json.Int 99) "Reflexive"));
  check Alcotest.string "deadline does not shard"
    base
    (key (count_req ~deadline_ms:250.0 "Reflexive"));
  check Alcotest.string "budget does not shard"
    base
    (key (count_req ~budget:20.0 "Reflexive"));
  check Alcotest.bool "budget still parts the flights" true
    ((keys (count_req "Reflexive")).Router.flight
    <> (keys (count_req ~budget:20.0 "Reflexive")).Router.flight);
  check Alcotest.string "trace context does not shard"
    base
    (key
       (count_req
          ~trace:{ Protocol.trace_id = 99; parent_pid = 1; parent_span = 2 }
          "Reflexive"));
  check Alcotest.bool "different property, different key" true
    (base <> key (count_req "Transitive"));
  check Alcotest.bool "different scope, different key" true
    (base <> key (count_req ~scope:4 "Reflexive"));
  List.iter
    (fun kind ->
      check Alcotest.bool "admin kinds fan out (no routing key)" true
        (Router.routing_keys (admin_req kind) = None))
    [ Protocol.Health; Protocol.Stats; Protocol.Metrics `Text ]

let router_restamps_caller_id () =
  (* the dispatched request carries a null id (shared across deduped
     callers); each caller's response must get its own id back *)
  let dispatched_ids = ref [] in
  let dispatch _shard (req : Protocol.request) =
    dispatched_ids := req.Protocol.id :: !dispatched_ids;
    Protocol.ok ~id:req.Protocol.id (Json.Obj [ ("count", Json.Str "0") ])
  in
  let t = Router.create { Router.default_config with Router.shards = 2 } ~dispatch in
  let resp = Router.execute t (count_req ~id:(Json.Int 7) "Reflexive") in
  check Alcotest.string "caller id echoed" "7" (Json.to_string resp.Protocol.rid);
  check Alcotest.(list string) "upstream saw a null id" [ "null" ]
    (List.map Json.to_string !dispatched_ids);
  Router.shutdown t

let router_dispatch_failure_is_internal () =
  let dispatch _ _ = failwith "shard unreachable" in
  let t = Router.create { Router.default_config with Router.shards = 2 } ~dispatch in
  (match (Router.execute t (count_req "Reflexive")).Protocol.body with
  | Error (Protocol.Internal, _) -> ()
  | Error (code, msg) ->
      Alcotest.failf "expected internal, got %s: %s" (Protocol.code_name code) msg
  | Ok _ -> Alcotest.fail "expected an error response");
  Router.shutdown t

let router_same_key_same_shard () =
  let hits = Array.make 4 0 in
  let dispatch shard (req : Protocol.request) =
    hits.(shard) <- hits.(shard) + 1;
    Protocol.ok ~id:req.Protocol.id (Json.Obj [ ("count", Json.Str "0") ])
  in
  let t = Router.create { Router.default_config with Router.shards = 4 } ~dispatch in
  for i = 1 to 10 do
    ignore (Router.execute t (count_req ~id:(Json.Int i) "Reflexive"))
  done;
  check Alcotest.int "all identical requests hit one shard" 10
    (Array.fold_left max 0 hits);
  Router.shutdown t

(* --- against real in-process shard servers ----------------------------- *)

let with_real_fleet ~shards f =
  let servers =
    Array.init shards (fun i ->
        Server.create
          {
            Server.default_config with
            Server.cache = true;
            shard_id = Some i;
          })
  in
  let dispatch shard req = Server.execute servers.(shard) req in
  let t = Router.create { Router.default_config with Router.shards = shards } ~dispatch in
  Fun.protect
    ~finally:(fun () ->
      Router.shutdown t;
      Array.iter Server.shutdown servers)
    (fun () -> f t)

let fleet_dedup_counts_once () =
  (* the acceptance claim: N concurrent identical cache-miss requests
     increment count.exact.calls exactly once *)
  Obs.set_sink (Obs.stats_only ());
  Obs.reset_counters ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_sink Obs.null;
      Obs.reset_counters ())
    (fun () ->
      with_real_fleet ~shards:2 (fun t ->
          let n = 8 in
          let oks = Atomic.make 0 in
          let threads =
            Array.init n (fun i ->
                Thread.create
                  (fun () ->
                    match
                      (Router.execute t (count_req ~id:(Json.Int i) "Reflexive"))
                        .Protocol.body
                    with
                    | Ok _ -> Atomic.incr oks
                    | Error (_, msg) -> Alcotest.failf "request failed: %s" msg)
                  ())
          in
          Array.iter Thread.join threads;
          check Alcotest.int "every caller answered" n (Atomic.get oks);
          (* concurrent callers dedup in flight; any straggler that
             missed the flight hits the shard memo instead — either
             way the upstream counted once *)
          check (Alcotest.float 0.0) "one exact count" 1.0
            (Obs.counter_value "count.exact.calls")))

let fleet_merges_shard_fields () =
  with_real_fleet ~shards:2 (fun t ->
      (* health: per-shard entries remain attributable via "shard" *)
      (match (Router.execute t (admin_req Protocol.Health)).Protocol.body with
      | Error (_, msg) -> Alcotest.failf "health failed: %s" msg
      | Ok payload -> (
          (match Json.member "status" payload with
          | Some (Json.Str "ok") -> ()
          | _ -> Alcotest.failf "merged health: %s" (Json.to_string payload));
          match Json.member "shards" payload with
          | Some (Json.List entries) ->
              check Alcotest.int "one health entry per shard" 2
                (List.length entries);
              let ids =
                List.filter_map (fun e -> Json.member "shard" e) entries
                |> List.map Json.to_string
                |> List.sort compare
              in
              check
                Alcotest.(list string)
                "shard ids attributed" [ "0"; "1" ] ids
          | _ -> Alcotest.failf "merged health lacks shards: %s" (Json.to_string payload)));
      (* stats: a served count shows up in the fleet-wide cache sums *)
      ignore (Router.execute t (count_req "Reflexive"));
      ignore (Router.execute t (count_req "Reflexive"));
      match (Router.execute t (admin_req Protocol.Stats)).Protocol.body with
      | Error (_, msg) -> Alcotest.failf "stats failed: %s" msg
      | Ok payload ->
          (match Json.member "cache" payload with
          | Some cache -> (
              match
                (Json.member "hits" cache, Json.member "misses" cache)
              with
              | Some (Json.Int h), Some (Json.Int m) ->
                  check Alcotest.bool "summed cache saw the miss + hit" true
                    (h >= 1 && m >= 1)
              | _ -> Alcotest.failf "cache sums: %s" (Json.to_string cache))
          | None ->
              Alcotest.failf "merged stats lacks cache: %s"
                (Json.to_string payload));
          (match Json.member "router" payload with
          | Some _ -> ()
          | None ->
              Alcotest.failf "merged stats lacks router section: %s"
                (Json.to_string payload)))

let has_substr hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let fleet_trace_parenting () =
  (* the tentpole acceptance shape, in process: shard [serve.request]
     spans hang under the router's [fleet.route] spans via the wire-
     propagated trace context *)
  let module Trace = Mcml_obs.Trace in
  let events = ref [] in
  let sink = { Obs.emit = (fun e -> events := e :: !events); flush = ignore } in
  Obs.set_sink sink;
  let forest =
    Fun.protect
      ~finally:(fun () -> Obs.set_sink Obs.null)
      (fun () ->
        with_real_fleet ~shards:2 (fun t ->
            List.iter
              (fun name ->
                (* each request starts from a clean context, as a fresh
                   connection thread would *)
                match
                  (Obs.with_context Obs.empty_context (fun () ->
                       Router.execute t (count_req name)))
                    .Protocol.body
                with
                | Ok _ -> ()
                | Error (_, msg) -> Alcotest.failf "%s failed: %s" name msg)
              [ "Reflexive"; "Transitive"; "PartialOrder" ]);
        match Trace.of_events (List.rev !events) with
        | Ok forest -> forest
        | Error msgs ->
            Alcotest.failf "trace merge failed: %s" (String.concat "; " msgs))
  in
  let serve_spans = ref 0 in
  let rec walk parent_name (sp : Trace.span) =
    if sp.Trace.name = "serve.request" then begin
      incr serve_spans;
      check
        Alcotest.(option string)
        "serve.request parented under fleet.route" (Some "fleet.route")
        parent_name;
      check Alcotest.bool "remote parent reference present" true
        (sp.Trace.remote_parent <> None)
    end;
    List.iter (walk (Some sp.Trace.name)) sp.Trace.children
  in
  List.iter (walk None) forest.Trace.roots;
  check Alcotest.bool "saw shard spans" true (!serve_spans >= 3);
  check Alcotest.int "every serve.request joined via a remote edge"
    !serve_spans forest.Trace.remote_edges

let fleet_merged_metrics () =
  let module Metrics = Mcml_obs.Metrics in
  Obs.set_sink (Obs.stats_only ());
  Obs.reset_counters ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_sink Obs.null;
      Obs.reset_counters ())
  @@ fun () ->
  with_real_fleet ~shards:2 (fun t ->
      ignore (Router.execute t (count_req "Reflexive"));
      match
        (Router.execute t (admin_req (Protocol.Metrics `Text))).Protocol.body
      with
      | Error (_, msg) -> Alcotest.failf "metrics failed: %s" msg
      | Ok payload ->
          let text =
            match Json.member "exposition" payload with
            | Some (Json.Str s) -> s
            | _ ->
                Alcotest.failf "metrics payload lacks exposition: %s"
                  (Json.to_string payload)
          in
          (match Metrics.lint text with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "fleet exposition failed lint: %s" msg);
          check Alcotest.bool "shard-labeled samples present" true
            (has_substr text "shard=\"0\"");
          check Alcotest.bool "router samples present" true
            (has_substr text "shard=\"router\"");
          check Alcotest.bool "shard liveness gauge present" true
            (has_substr text "mcml_fleet_shard_up"))

(* --- the router's connection loop, over two in-process servers ------------ *)

let router_in_order () =
  with_real_fleet ~shards:2 (fun t -> Conn_cases.in_order (Router.handle_connection t))

let router_drain_ends_loop () =
  with_real_fleet ~shards:2 (fun t ->
      Conn_cases.drain_ends_loop (Router.handle_connection t) (Router.frontend t))

let router_overlong_line () =
  with_real_fleet ~shards:2 (fun t ->
      Conn_cases.overlong_then_valid (Router.handle_connection t))

let router_nested_line () =
  with_real_fleet ~shards:2 (fun t ->
      Conn_cases.nested_then_valid (Router.handle_connection t))

let () =
  Alcotest.run "mcml_fleet"
    [
      ( "ring",
        [
          Alcotest.test_case "deterministic" `Quick ring_deterministic;
          Alcotest.test_case "covers all shards" `Quick ring_covers_all_shards;
          Alcotest.test_case "resize stability" `Quick ring_resize_stability;
          Alcotest.test_case "rejects shards=0" `Quick ring_rejects_no_shards;
        ] );
      ( "single-flight",
        [
          Alcotest.test_case "one leader" `Quick single_flight_one_leader;
          Alcotest.test_case "shared exception" `Quick single_flight_shares_exception;
          Alcotest.test_case "in-flight only" `Quick single_flight_inflight_only;
        ] );
      ( "router",
        [
          Alcotest.test_case "routing key properties" `Quick routing_key_properties;
          Alcotest.test_case "caller id re-stamped" `Quick router_restamps_caller_id;
          Alcotest.test_case "dispatch failure = internal" `Quick
            router_dispatch_failure_is_internal;
          Alcotest.test_case "stable shard per key" `Quick router_same_key_same_shard;
          Alcotest.test_case "dedup counts once" `Slow fleet_dedup_counts_once;
          Alcotest.test_case "merged shard fields" `Slow fleet_merges_shard_fields;
          Alcotest.test_case "cross-process span parenting" `Slow
            fleet_trace_parenting;
          Alcotest.test_case "merged metrics exposition" `Slow
            fleet_merged_metrics;
        ] );
      ( "connection",
        [
          Alcotest.test_case "responses in request order" `Quick router_in_order;
          Alcotest.test_case "drain ends the connection loop" `Quick
            router_drain_ends_loop;
          Alcotest.test_case "overlong line, then a valid line" `Quick
            router_overlong_line;
          Alcotest.test_case "nested line, then a valid line" `Quick
            router_nested_line;
        ] );
    ]
