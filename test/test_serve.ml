(* Serve layer: protocol round-trips, malformed-input rejection, request
   execution against direct counting, deadline expiry, bounded admission,
   and graceful drain under a real SIGTERM. *)

open Mcml_serve
module Json = Mcml_obs.Json

let check = Alcotest.check

(* ---------------------------------------------------------------------- *)
(* Protocol                                                                *)
(* ---------------------------------------------------------------------- *)

let mk_query ?scope ?(symmetry = false) ?(negate = false)
    ?(backend = Mcml_counting.Counter.Exact) ?(budget = 12.5) ?(seed = 42) name =
  {
    Protocol.prop = Mcml_props.Props.find_exn name;
    scope;
    symmetry;
    negate;
    backend;
    budget;
    seed;
  }

let roundtrip req =
  let line = Json.to_string (Protocol.request_to_json req) in
  match Protocol.request_of_string line with
  | Ok req' -> req'
  | Error (_, msg) -> Alcotest.failf "round-trip rejected %s: %s" line msg

let check_query (q : Protocol.query) (q' : Protocol.query) =
  check Alcotest.string "prop" q.Protocol.prop.Mcml_props.Props.name
    q'.Protocol.prop.Mcml_props.Props.name;
  check Alcotest.(option int) "scope" q.Protocol.scope q'.Protocol.scope;
  check Alcotest.bool "symmetry" q.Protocol.symmetry q'.Protocol.symmetry;
  check Alcotest.bool "negate" q.Protocol.negate q'.Protocol.negate;
  check Alcotest.bool "backend"
    (match q.Protocol.backend with Mcml_counting.Counter.Exact -> true | _ -> false)
    (match q'.Protocol.backend with Mcml_counting.Counter.Exact -> true | _ -> false);
  check (Alcotest.float 1e-9) "budget" q.Protocol.budget q'.Protocol.budget;
  check Alcotest.int "seed" q.Protocol.seed q'.Protocol.seed

let proto_roundtrip_all_kinds () =
  let q = mk_query ~scope:4 ~symmetry:true "PartialOrder" in
  List.iter
    (fun kind ->
      let req =
        { Protocol.id = Json.Int 7; trace = None; deadline_ms = Some 1500.0; kind }
      in
      let req' = roundtrip req in
      check Alcotest.string "kind"
        (Protocol.kind_name req.Protocol.kind)
        (Protocol.kind_name req'.Protocol.kind);
      check
        Alcotest.(option (float 1e-9))
        "deadline" req.Protocol.deadline_ms req'.Protocol.deadline_ms;
      check Alcotest.string "id" (Json.to_string req.Protocol.id)
        (Json.to_string req'.Protocol.id);
      match (req.Protocol.kind, req'.Protocol.kind) with
      | Protocol.Count a, Protocol.Count b
      | Protocol.Accmc a, Protocol.Accmc b
      | Protocol.Diffmc a, Protocol.Diffmc b ->
          check_query a b
      | Protocol.Health, Protocol.Health | Protocol.Stats, Protocol.Stats -> ()
      | Protocol.Metrics a, Protocol.Metrics b ->
          check Alcotest.bool "metrics format preserved" true (a = b)
      | _ -> Alcotest.fail "kind changed across the round-trip")
    [
      Protocol.Count q;
      Protocol.Accmc q;
      Protocol.Diffmc (mk_query ~backend:Mcml_counting.Counter.Brute "Reflexive");
      Protocol.Health;
      Protocol.Stats;
      Protocol.Metrics `Text;
      Protocol.Metrics `Json;
      Protocol.Metrics `Snapshot;
    ]

let proto_response_roundtrip () =
  let ok = Protocol.ok ~id:(Json.Str "a") (Json.Obj [ ("count", Json.Str "64") ]) in
  let er = Protocol.err ~id:(Json.Int 3) Protocol.Timeout "too slow" in
  List.iter
    (fun r ->
      match Protocol.response_of_string (Protocol.response_to_string r) with
      | Error msg -> Alcotest.failf "response round-trip failed: %s" msg
      | Ok r' ->
          check Alcotest.string "id" (Json.to_string r.Protocol.rid)
            (Json.to_string r'.Protocol.rid);
          check Alcotest.string "body"
            (Protocol.response_to_string r)
            (Protocol.response_to_string r'))
    [ ok; er ]

let expect_bad line =
  match Protocol.request_of_string line with
  | Ok _ -> Alcotest.failf "accepted malformed request: %s" line
  | Error (_, msg) ->
      check Alcotest.bool "error message non-empty" true (String.length msg > 0)

let proto_malformed () =
  expect_bad "{\"kind\":\"count\",\"prop\":\"Reflex";     (* truncated JSON *)
  expect_bad "{\"kind\":\"frobnicate\"}";                 (* unknown kind *)
  expect_bad "{\"kind\":\"count\",\"prop\":\"Reflexive\",\"deadline_ms\":-5}";
  expect_bad "{\"kind\":\"count\",\"prop\":\"NoSuchProp\"}";
  expect_bad "{\"kind\":\"count\",\"prop\":\"Reflexive\",\"backend\":\"cudd\"}";
  expect_bad "{\"kind\":\"count\"}";                      (* missing prop *)
  expect_bad "{\"kind\":\"count\",\"prop\":\"Reflexive\",\"scope\":0}";
  expect_bad "{\"kind\":\"count\",\"prop\":\"Reflexive\",\"budget_s\":0}";
  expect_bad "[1,2,3]";                                   (* not an object *)
  expect_bad "{\"kind\":\"metrics\",\"format\":\"xml\"}"; (* unknown format *)
  (* an absent format defaults to the text exposition *)
  (match Protocol.request_of_string "{\"kind\":\"metrics\"}" with
  | Ok { Protocol.kind = Protocol.Metrics `Text; _ } -> ()
  | Ok _ -> Alcotest.fail "bare metrics request did not default to text"
  | Error (_, msg) -> Alcotest.failf "bare metrics request rejected: %s" msg);
  (* the id still comes back on a rejected request when extractable *)
  match Protocol.request_of_string "{\"id\":9,\"kind\":\"frobnicate\"}" with
  | Error (Json.Int 9, _) -> ()
  | Error (other, _) ->
      Alcotest.failf "rejection lost the id: %s" (Json.to_string other)
  | Ok _ -> Alcotest.fail "accepted unknown kind"

let proto_trace_roundtrip () =
  let has_substr hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  (* the wire trace context survives a round-trip... *)
  let req =
    {
      Protocol.id = Json.Int 1;
      trace =
        Some { Protocol.trace_id = 987654321; parent_pid = 41; parent_span = 7 };
      deadline_ms = None;
      kind = Protocol.Health;
    }
  in
  let line = Json.to_string (Protocol.request_to_json req) in
  (match Protocol.request_of_string line with
  | Ok { Protocol.trace = Some w; _ } ->
      check Alcotest.int "trace id" 987654321 w.Protocol.trace_id;
      check Alcotest.int "parent pid" 41 w.Protocol.parent_pid;
      check Alcotest.int "parent span" 7 w.Protocol.parent_span
  | Ok { Protocol.trace = None; _ } -> Alcotest.failf "trace dropped: %s" line
  | Error (_, msg) -> Alcotest.failf "round-trip rejected %s: %s" line msg);
  (* ...an absent or null trace stays absent (and off the wire)... *)
  (match Protocol.request_of_string "{\"kind\":\"health\",\"trace\":null}" with
  | Ok { Protocol.trace = None; _ } -> ()
  | Ok _ -> Alcotest.fail "null trace should parse as None"
  | Error (_, msg) -> Alcotest.failf "null trace rejected: %s" msg);
  (match
     Protocol.request_to_json { req with Protocol.trace = None } |> Json.to_string
   with
  | s when not (has_substr s "trace") -> ()
  | s -> Alcotest.failf "trace = None must not serialize: %s" s);
  (* ...and a malformed one is rejected, not ignored *)
  List.iter expect_bad
    [
      "{\"kind\":\"health\",\"trace\":7}";
      "{\"kind\":\"health\",\"trace\":{\"id\":1,\"pid\":2}}";
      "{\"kind\":\"health\",\"trace\":{\"id\":\"x\",\"pid\":2,\"span\":3}}";
    ]

(* ---------------------------------------------------------------------- *)
(* Execution                                                               *)
(* ---------------------------------------------------------------------- *)

let with_server ?(cfg = Server.default_config) f =
  let srv = Server.create cfg in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) (fun () -> f srv)

let count_req ?deadline_ms ?scope ?symmetry ?backend ?(budget = 30.0) name =
  {
    Protocol.id = Json.Null;
    trace = None;
    deadline_ms;
    kind = Protocol.Count (mk_query ?scope ?symmetry ?backend ~budget name);
  }

let result_member resp field =
  match resp.Protocol.body with
  | Error (code, msg) ->
      Alcotest.failf "expected ok response, got %s: %s" (Protocol.code_name code)
        msg
  | Ok payload -> (
      match Json.member field payload with
      | Some v -> v
      | None ->
          Alcotest.failf "result lacks %S: %s" field (Json.to_string payload))

let execute_count_matches_direct () =
  with_server (fun srv ->
      let prop = Mcml_props.Props.find_exn "Reflexive" in
      let served =
        result_member (Server.execute srv (count_req ~scope:3 "Reflexive")) "count"
      in
      let direct =
        match
          Mcml_alloy.Analyzer.count ~budget:30.0
            ~backend:Mcml_counting.Counter.Exact
            (Mcml_props.Props.analyzer ~scope:3)
            ~pred:prop.Mcml_props.Props.pred
        with
        | Some o -> Mcml_logic.Bignat.to_string o.Mcml_counting.Counter.count
        | None -> Alcotest.fail "direct count timed out"
      in
      check Alcotest.string "served count = direct count"
        (Json.to_string (Json.Str direct))
        (Json.to_string served))

let execute_health_stats () =
  with_server (fun srv ->
      let exec kind =
        Server.execute srv
          { Protocol.id = Json.Null; trace = None; deadline_ms = None; kind }
      in
      (match (exec Protocol.Health).Protocol.body with
      | Ok payload -> (
          match Json.member "status" payload with
          | Some (Json.Str "ok") -> ()
          | _ -> Alcotest.failf "health payload: %s" (Json.to_string payload))
      | Error (_, msg) -> Alcotest.failf "health failed: %s" msg);
      ignore (exec (Protocol.Count (mk_query ~scope:3 "Reflexive")));
      match (exec Protocol.Stats).Protocol.body with
      | Ok payload -> (
          match (Json.member "requests" payload, Json.member "cache" payload) with
          | Some (Json.Obj _), Some (Json.Obj _) -> ()
          | _ -> Alcotest.failf "stats payload: %s" (Json.to_string payload))
      | Error (_, msg) -> Alcotest.failf "stats failed: %s" msg)

(* ---------------------------------------------------------------------- *)
(* Served answers are cached, not attempts                                 *)
(* ---------------------------------------------------------------------- *)

let cache_stat srv field =
  let stats =
    { Protocol.id = Json.Null; trace = None; deadline_ms = None; kind = Protocol.Stats }
  in
  match (Server.execute srv stats).Protocol.body with
  | Ok payload -> (
      match Option.bind (Json.member "cache" payload) (Json.member field) with
      | Some (Json.Int n) -> n
      | _ -> Alcotest.failf "stats lacks cache.%s: %s" field (Json.to_string payload))
  | Error (_, msg) -> Alcotest.failf "stats failed: %s" msg

let served srv req = Conn_cases.code_of (Server.execute srv req)

(* The names of the spans [f] closed, under an in-memory sink. *)
let spans_of f =
  let module Obs = Mcml_obs.Obs in
  let events = ref [] in
  Obs.set_sink { Obs.emit = (fun e -> events := e :: !events); flush = ignore };
  Fun.protect
    ~finally:(fun () ->
      Obs.set_sink Obs.null;
      Obs.reset_counters ())
    f;
  List.filter_map (function Obs.Span_end { name; _ } -> Some name | _ -> None) !events

let occurrences name names = List.length (List.filter (String.equal name) names)

let deadline_hits_batch_answer () =
  with_server (fun srv ->
      check Alcotest.string "batch count" "ok"
        (served srv (count_req ~scope:4 "PartialOrder"));
      let hits = cache_stat srv "hits" and misses = cache_stat srv "misses" in
      (* 20 s left of a 30 s budget: the deadline clamps the budget *)
      check Alcotest.string "deadlined count" "ok"
        (served srv (count_req ~deadline_ms:20000.0 ~scope:4 "PartialOrder"));
      check Alcotest.int "one more hit" (hits + 1) (cache_stat srv "hits");
      check Alcotest.int "no more misses" misses (cache_stat srv "misses"))

let timeout_answers_no_more_budget () =
  with_server (fun srv ->
      let tiny () = served srv (count_req ~budget:1e-9 ~scope:4 "PartialOrder") in
      check Alcotest.string "a tiny budget times out" "timeout" (tiny ());
      check Alcotest.string "the same budget again" "timeout" (tiny ());
      check Alcotest.int "answered from memory" 1 (cache_stat srv "misses");
      check Alcotest.string "budget 30 counts" "ok"
        (served srv (count_req ~scope:4 "PartialOrder"));
      check Alcotest.int "a second miss" 2 (cache_stat srv "misses");
      check Alcotest.string "the count answers the tiny budget" "ok" (tiny ()))

let identical_counts_translate_once () =
  let spans =
    spans_of (fun () ->
        with_server
          ~cfg:{ Server.default_config with Server.cache = false }
          (fun srv ->
            for _ = 1 to 2 do
              check Alcotest.string "count" "ok"
                (served srv (count_req ~scope:4 "PartialOrder"))
            done))
  in
  check Alcotest.int "one translation" 1 (occurrences "tseitin.encode" spans);
  check Alcotest.int "two counts" 2 (occurrences "count.exact" spans)

let exact_and_approx_keep_apart () =
  with_server (fun srv ->
      let exact_flag req = result_member (Server.execute srv req) "exact" in
      let approx = Mcml_counting.(Counter.Approx { Approx.default with Approx.seed = 1 }) in
      check Alcotest.string "exact" "true"
        (Json.to_string (exact_flag (count_req ~scope:3 "Reflexive")));
      check Alcotest.string "then approximate" "false"
        (Json.to_string (exact_flag (count_req ~scope:3 ~backend:approx "Reflexive")));
      check Alcotest.int "two counts, no shared entry" 2 (cache_stat srv "misses"))

(* Minor-heap words allocated per call of [f], over [n] calls. *)
let words_per_call n f =
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

(* A count-cache hit does no work that grows with its CNF: the server
   keeps the prepared query, whose key text and hash its first lookup
   built.  The large key (a symmetry-broken scope-5 TotalOrder) is
   about 17 KB of text against 0.1 KB for the small one. *)
let hit_allocation_flat () =
  Mcml_obs.Obs.set_sink Mcml_obs.Obs.null;
  with_server
    ~cfg:{ Server.default_config with Server.jobs = 1 }
    (fun srv ->
      let per_hit req =
        check Alcotest.string "warm" "ok" (served srv req);
        let misses = cache_stat srv "misses" in
        let words = words_per_call 50 (fun () -> ignore (Server.execute srv req)) in
        check Alcotest.int "every call a hit" misses (cache_stat srv "misses");
        words
      in
      let small = per_hit (count_req ~scope:3 "Reflexive") in
      let large = per_hit (count_req ~scope:5 ~symmetry:true "TotalOrder") in
      if Float.abs (large -. small) >= 256.0 then
        Alcotest.failf "words per hit: %.0f on the small key, %.0f on the large one" small
          large)

(* ---------------------------------------------------------------------- *)
(* Connections (socketpair end-to-end)                                     *)
(* ---------------------------------------------------------------------- *)

open Conn_cases

let connect srv = Conn_cases.connect (Server.handle_connection srv)
let connection_in_order () = with_server (fun srv -> in_order (Server.handle_connection srv))

(* two workers, so the uncounted request is still running while the
   reader answers the cached one *)
let connection_cached_in_order () =
  with_server
    ~cfg:{ Server.default_config with Server.jobs = 2 }
    (fun srv -> cached_in_order (Server.handle_connection srv))

let connection_overlong_line () =
  with_server (fun srv -> overlong_then_valid (Server.handle_connection srv))

let connection_nested_line () =
  with_server (fun srv -> nested_then_valid (Server.handle_connection srv))

let unbalanceable_is_bad_request () =
  (* unrestricted Surjective at scope 3 has 343 positives and 169
     negatives: no balanced dataset, which is the caller's input, not a
     server fault; the connection keeps serving *)
  with_server (fun srv ->
      let rs =
        exchange (Server.handle_connection srv)
          [
            "{\"id\":1,\"kind\":\"accmc\",\"prop\":\"Surjective\",\"scope\":3}";
            "{\"id\":2,\"kind\":\"diffmc\",\"prop\":\"Surjective\",\"scope\":3}";
            "{\"id\":3,\"kind\":\"accmc\",\"prop\":\"Reflexive\",\"scope\":3}";
          ]
      in
      check Alcotest.(list string) "outcomes" [ "bad_request"; "bad_request"; "ok" ]
        (List.map code_of rs))

let deadline_expiry_keeps_connection () =
  with_server (fun srv ->
      let conn = connect srv in
      (* a deadline this short expires before the count starts *)
      send conn
        "{\"id\":1,\"kind\":\"count\",\"prop\":\"PartialOrder\",\"scope\":4,\"deadline_ms\":0.001}";
      let r1 = recv conn in
      check Alcotest.string "deadline expiry is a timeout response" "timeout"
        (code_of r1);
      (* ... and the connection is still alive and serving *)
      send conn "{\"id\":2,\"kind\":\"count\",\"prop\":\"Reflexive\",\"scope\":3}";
      let r2 = recv conn in
      finish conn;
      check Alcotest.string "next request on the same connection" "ok" (code_of r2))

let admission_zero_rejects () =
  with_server
    ~cfg:{ Server.default_config with Server.admission = 0 }
    (fun srv ->
      let conn = connect srv in
      send conn "{\"id\":1,\"kind\":\"count\",\"prop\":\"Reflexive\",\"scope\":3}";
      send conn "{\"id\":2,\"kind\":\"health\"}";
      let r1 = recv conn and r2 = recv conn in
      finish conn;
      check Alcotest.string "counting request rejected" "overloaded" (code_of r1);
      check Alcotest.string "admin kind still answered" "ok" (code_of r2))

(* ---------------------------------------------------------------------- *)
(* Answers given on the reader                                             *)
(* ---------------------------------------------------------------------- *)

let with_stats_only f =
  let module Obs = Mcml_obs.Obs in
  Obs.set_sink (Obs.stats_only ());
  Obs.reset_counters ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_sink Obs.null;
      Obs.reset_counters ())
    f

let submitted () = Mcml_obs.Obs.counter_value "exec.tasks.submitted"

(* Every line on one connection in one write, and every answer back. *)
let pipelined srv lines =
  let rs = exchange (Server.handle_connection srv) [ String.concat "\n" lines ] in
  check Alcotest.int "one answer per request" (List.length lines) (List.length rs);
  rs

(* Fifty pipelined counts the cache holds are answered on the reader:
   no pool task, and one lookup each. *)
let cached_counts_on_reader () =
  with_stats_only @@ fun () ->
  with_server
    ~cfg:{ Server.default_config with Server.jobs = 2 }
    (fun srv ->
      let line = "{\"kind\":\"count\",\"prop\":\"PartialOrder\",\"scope\":4}" in
      check Alcotest.(list string) "cold" [ "ok" ] (List.map code_of (pipelined srv [ line ]));
      let tasks = submitted () in
      let hits = cache_stat srv "hits" and misses = cache_stat srv "misses" in
      let rs = pipelined srv (List.init 50 (fun _ -> line)) in
      check Alcotest.bool "all ok" true (List.for_all (fun r -> code_of r = "ok") rs);
      check (Alcotest.float 0.0) "no pool task" tasks (submitted ());
      check Alcotest.int "fifty hits" (hits + 50) (cache_stat srv "hits");
      check Alcotest.int "no miss" misses (cache_stat srv "misses"))

(* Misses the reader found travel to the pool without a second lookup,
   yet a task that starts after another stored the count takes it.  A
   kept timeout makes pipelined counts with more budget miss on the
   reader; at most three run at once (two workers, and the responder
   helping in [Pool.await]), so the eight are counted at most three
   times. *)
let pipelined_misses_count_once () =
  with_stats_only @@ fun () ->
  with_server
    ~cfg:{ Server.default_config with Server.jobs = 2 }
    (fun srv ->
      let line budget =
        Printf.sprintf
          "{\"kind\":\"count\",\"prop\":\"PartialOrder\",\"scope\":5,\"budget_s\":%g}" budget
      in
      let calls () = Mcml_obs.Obs.counter_value "count.exact.calls" in
      let looked () = cache_stat srv "hits" + cache_stat srv "misses" in
      check Alcotest.(list string) "timed out" [ "timeout" ]
        (List.map code_of (pipelined srv [ line 1e-9 ]));
      let before = calls () and lookups = looked () in
      let rs = pipelined srv (List.init 8 (fun _ -> line 30.0)) in
      check Alcotest.bool "all ok" true (List.for_all (fun r -> code_of r = "ok") rs);
      check Alcotest.int "one lookup each" (lookups + 8) (looked ());
      check Alcotest.bool "counted at most three times" true (calls () -. before <= 3.0))

(* #(¬ϕ∧S) = #S − #(ϕ∧S): once both are cached, a negated exact count
   is two hits on the reader. *)
let negated_from_two_hits () =
  with_stats_only @@ fun () ->
  with_server (fun srv ->
      let count negate =
        Printf.sprintf "{\"kind\":\"count\",\"prop\":\"PreOrder\",\"scope\":4,\"negate\":%b}"
          negate
      in
      let value line =
        match result_member (List.hd (pipelined srv [ line ])) "count" with
        | Json.Str n -> int_of_string n
        | v -> Alcotest.failf "count: %s" (Json.to_string v)
      in
      let phi = value (count false) in
      check Alcotest.int "ϕ∧S: one miss" 1 (cache_stat srv "misses");
      let cold = value (count true) in
      check Alcotest.int "ϕ∧S hits, S misses" 1 (cache_stat srv "hits");
      check Alcotest.int "two misses" 2 (cache_stat srv "misses");
      check Alcotest.int "#(¬ϕ∧S) = 2^16 − #(ϕ∧S)" (65536 - phi) cold;
      let tasks = submitted () in
      check Alcotest.int "same answer" cold (value (count true));
      check Alcotest.int "two more hits" 3 (cache_stat srv "hits");
      check Alcotest.int "no more misses" 2 (cache_stat srv "misses");
      check (Alcotest.float 0.0) "no pool task" tasks (submitted ()))

(* ---------------------------------------------------------------------- *)
(* Live metrics and SLO accounting                                         *)
(* ---------------------------------------------------------------------- *)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let metrics_request_scrapes_registry () =
  with_server (fun srv ->
      let conn = connect srv in
      (* prime the registry with one real request first *)
      send conn "{\"id\":1,\"kind\":\"count\",\"prop\":\"Reflexive\",\"scope\":3}";
      send conn "{\"id\":2,\"kind\":\"metrics\"}";
      send conn "{\"id\":3,\"kind\":\"metrics\",\"format\":\"json\"}";
      send conn "{\"id\":4,\"kind\":\"metrics\",\"format\":\"xml\"}";
      let r1 = recv conn and r2 = recv conn and r3 = recv conn and r4 = recv conn in
      finish conn;
      check Alcotest.string "count answered" "ok" (code_of r1);
      (* text format: a lint-clean exposition carrying the probe gauges
         and the server's dynamic sources, live — no flush happened *)
      (match (result_member r2 "format", result_member r2 "exposition") with
      | Json.Str "openmetrics", Json.Str text ->
          (match Mcml_obs.Metrics.lint text with
          | Ok () -> ()
          | Error e -> Alcotest.failf "served exposition fails lint: %s" e);
          List.iter
            (fun family ->
              check Alcotest.bool (Printf.sprintf "exposes %s" family) true
                (contains text family))
            [
              "mcml_gc_heap_words";
              "mcml_proc_max_rss_bytes";
              "mcml_exec_pool_queue_depth";
              "mcml_serve_inflight";
              "mcml_serve_slo_deadline_hit_ratio";
            ]
      | f, e ->
          Alcotest.failf "unexpected metrics payload: %s / %s" (Json.to_string f)
            (Json.to_string e));
      (* json format: the schema-tagged rendering *)
      (match result_member r3 "schema" with
      | Json.Str "mcml.metrics.v1" -> ()
      | other -> Alcotest.failf "metrics json schema: %s" (Json.to_string other));
      check Alcotest.string "unknown format rejected" "bad_request" (code_of r4))

let slo_counters_accumulate () =
  let module Obs = Mcml_obs.Obs in
  Obs.set_sink (Obs.stats_only ());
  Obs.reset_counters ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_sink Obs.null;
      Obs.reset_counters ())
  @@ fun () ->
  with_server (fun srv ->
      let count ?deadline_ms prop scope =
        Server.execute srv (count_req ?deadline_ms ~scope prop)
      in
      (* no deadline: no SLO accounting at all *)
      check Alcotest.string "undeadlined ok" "ok" (code_of (count "Reflexive" 3));
      check (Alcotest.float 1e-9) "no deadline, no slo" 0.0
        (Obs.counter_value "serve.slo.deadline_requests");
      (* a generous deadline is met; one already expired at execution
         (clamped budget ~1µs, blown by the first deadline tick) misses *)
      check Alcotest.string "hit" "ok"
        (code_of (count ~deadline_ms:60000.0 "Reflexive" 3));
      check Alcotest.string "miss" "timeout"
        (code_of (count ~deadline_ms:0.001 "PartialOrder" 4));
      check (Alcotest.float 1e-9) "two deadlined requests" 2.0
        (Obs.counter_value "serve.slo.deadline_requests");
      check (Alcotest.float 1e-9) "one hit" 1.0
        (Obs.counter_value "serve.slo.deadline_hit");
      check (Alcotest.float 1e-9) "one miss" 1.0
        (Obs.counter_value "serve.slo.deadline_miss");
      (* the requested deadlines landed in the serve.deadline_ms histogram *)
      match Obs.histogram_stats "serve.deadline_ms" with
      | Some s -> check Alcotest.int "deadline histogram count" 2 s.Mcml_obs.Obs.count
      | None -> Alcotest.fail "serve.deadline_ms histogram missing")

let overload_rejections_counted () =
  let module Obs = Mcml_obs.Obs in
  Obs.set_sink (Obs.stats_only ());
  Obs.reset_counters ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_sink Obs.null;
      Obs.reset_counters ())
  @@ fun () ->
  with_server
    ~cfg:{ Server.default_config with Server.admission = 0 }
    (fun srv ->
      let conn = connect srv in
      send conn "{\"id\":1,\"kind\":\"count\",\"prop\":\"Reflexive\",\"scope\":3}";
      let r1 = recv conn in
      finish conn;
      check Alcotest.string "rejected" "overloaded" (code_of r1);
      check (Alcotest.float 1e-9) "rejection counted against the SLO" 1.0
        (Obs.counter_value "serve.slo.overload_rejections"))

let drain_completes_in_flight () =
  with_server (fun srv ->
      (* a real SIGTERM, delivered to this process, must end the serve
         loop while the already-read request still gets its answer *)
      let previous =
        Sys.signal Sys.sigterm
          (Sys.Signal_handle (fun _ -> Frontend.drain (Server.frontend srv)))
      in
      Fun.protect
        ~finally:(fun () -> Sys.set_signal Sys.sigterm previous)
        (fun () ->
          let conn = connect srv in
          send conn "{\"id\":1,\"kind\":\"count\",\"prop\":\"Reflexive\",\"scope\":3}";
          (* let the reader pick the request up before the drain lands *)
          Thread.delay 0.05;
          Unix.kill (Unix.getpid ()) Sys.sigterm;
          (* the handler must terminate on its own now — no EOF from us *)
          Thread.join conn.handler;
          check Alcotest.bool "server is draining" true
            (Frontend.draining (Server.frontend srv));
          let r1 = recv conn in
          check Alcotest.string "in-flight request completed" "ok" (code_of r1);
          (match input_line conn.ic with
          | exception End_of_file -> ()
          | line -> Alcotest.failf "unexpected extra response: %s" line);
          close_in_noerr conn.ic))

let draining_rejects_new_requests () =
  with_server (fun srv ->
      drain_ends_loop (Server.handle_connection srv) (Server.frontend srv))

(* ---------------------------------------------------------------------- *)
(* Line reader (socketpair)                                                *)
(* ---------------------------------------------------------------------- *)

let with_reader f =
  let r, w = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close r;
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () -> f (Line_reader.create r) w)

let write fd s = ignore (Unix.write_substring fd s 0 (String.length s))

(* the writes run on their own thread: a line near the cap outgrows the
   socket buffer, so they block until the reader drains it *)
let writer steps =
  Thread.create (fun () -> List.iter (fun step -> step ()) steps) ()

(* a wake descriptor that never becomes readable: nothing writes it,
   and its write end stays open *)
let never, _ = Unix.pipe ~cloexec:true ()
let next r = Line_reader.next r ~wake:never

let show = function
  | None -> "eof"
  | Some (Ok line) when String.length line > 64 ->
      Printf.sprintf "ok <%d bytes>" (String.length line)
  | Some (Ok line) -> "ok " ^ line
  | Some (Error msg) -> "error " ^ msg

let expect r items =
  List.iter
    (fun want -> check Alcotest.string "next" want (show (next r)))
    items

let overlong = "error line longer than 1048576 bytes"

let lr_split_across_reads () =
  with_reader (fun r w ->
      let th =
        writer
          [
            (fun () -> write w "hel");
            (fun () -> Thread.delay 0.1);
            (fun () -> write w "lo\nwor");
            (fun () -> Thread.delay 0.1);
            (fun () -> write w "ld\n");
            (fun () -> Unix.shutdown w Unix.SHUTDOWN_SEND);
          ]
      in
      expect r [ "ok hello"; "ok world"; "eof" ];
      Thread.join th)

let lr_many_lines_one_read () =
  with_reader (fun r w ->
      write w "a\nbb\n\nccc\n";
      Unix.shutdown w Unix.SHUTDOWN_SEND;
      expect r [ "ok a"; "ok bb"; "ok "; "ok ccc"; "eof" ])

let lr_final_line_without_newline () =
  with_reader (fun r w ->
      write w "x\nlast";
      Unix.shutdown w Unix.SHUTDOWN_SEND;
      expect r [ "ok x"; "ok last"; "eof" ])

let lr_overlong_reported_once () =
  let cap = Line_reader.max_line in
  with_reader (fun r w ->
      let th =
        writer
          [
            (* exactly at the cap: still a line *)
            (fun () -> write w (String.make cap 'y' ^ "\n"));
            (* over the cap with no newline in sight: reported as soon
               as the cap is crossed *)
            (fun () -> write w (String.make (3 * cap) 'x' ^ "\nnext\n"));
            (* one byte over, its newline arriving in a later read *)
            (fun () -> write w (String.make cap 'z'));
            (fun () -> Thread.delay 0.2);
            (fun () -> write w "z\nafter\n");
            (fun () -> Unix.shutdown w Unix.SHUTDOWN_SEND);
          ]
      in
      expect r
        [
          Printf.sprintf "ok <%d bytes>" cap;
          overlong;
          "ok next";
          overlong;
          "ok after";
          "eof";
        ];
      Thread.join th)

let lr_eof_while_dropping () =
  with_reader (fun r w ->
      let th =
        writer
          [
            (fun () -> write w (String.make (Line_reader.max_line + 10) 'x'));
            (fun () -> Unix.shutdown w Unix.SHUTDOWN_SEND);
          ]
      in
      expect r [ overlong; "eof"; "eof" ];
      Thread.join th)

(* A written wake fd stops a blocked reader, but only after the whole
   lines already read; and it stays written. *)
let lr_wake_stops_reader () =
  with_reader (fun r w ->
      let wake_r, wake_w = Unix.pipe ~cloexec:true () in
      Fun.protect
        ~finally:(fun () ->
          Unix.close wake_r;
          Unix.close wake_w)
        (fun () ->
          let wakes () = Line_reader.next r ~wake:wake_r in
          write w "a\nb\npartial";
          let th =
            writer
              [
                (fun () -> Thread.delay 0.1);
                (fun () -> ignore (Unix.write_substring wake_w "x" 0 1));
              ]
          in
          check Alcotest.string "first" "ok a" (show (wakes ()));
          check Alcotest.string "second" "ok b" (show (wakes ()));
          check Alcotest.string "woken while blocked" "eof" (show (wakes ()));
          Thread.join th;
          check Alcotest.string "still woken" "eof" (show (wakes ()))))

let () =
  (* a failed line-reader case closes the pair under a blocked writer *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Alcotest.run "mcml_serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "request round-trip, all kinds" `Quick
            proto_roundtrip_all_kinds;
          Alcotest.test_case "response round-trip" `Quick proto_response_roundtrip;
          Alcotest.test_case "malformed requests rejected" `Quick proto_malformed;
          Alcotest.test_case "trace context round-trip" `Quick
            proto_trace_roundtrip;
        ] );
      ( "execute",
        [
          Alcotest.test_case "count matches direct Analyzer.count" `Quick
            execute_count_matches_direct;
          Alcotest.test_case "health and stats" `Quick execute_health_stats;
        ] );
      ( "cache",
        [
          Alcotest.test_case "a deadline hits a batch answer" `Quick
            deadline_hits_batch_answer;
          Alcotest.test_case "a timeout answers no more budget" `Quick
            timeout_answers_no_more_budget;
          Alcotest.test_case "exact and approximate keep apart" `Quick
            exact_and_approx_keep_apart;
          Alcotest.test_case "a hit allocates the same at any size" `Quick
            hit_allocation_flat;
          Alcotest.test_case "identical counts translate once" `Quick
            identical_counts_translate_once;
        ] );
      ( "connection",
        [
          Alcotest.test_case "responses in request order" `Quick connection_in_order;
          Alcotest.test_case "a cached count keeps its turn" `Quick
            connection_cached_in_order;
          Alcotest.test_case "overlong line, then a valid line" `Quick
            connection_overlong_line;
          Alcotest.test_case "nested line, then a valid line" `Quick
            connection_nested_line;
          Alcotest.test_case "unbalanceable data is a bad request" `Quick
            unbalanceable_is_bad_request;
          Alcotest.test_case "deadline expiry keeps the connection" `Quick
            deadline_expiry_keeps_connection;
          Alcotest.test_case "admission=0 sheds counting load" `Quick
            admission_zero_rejects;
        ] );
      ( "reader",
        [
          Alcotest.test_case "cached counts skip the pool" `Quick cached_counts_on_reader;
          Alcotest.test_case "pipelined misses count once per worker" `Quick
            pipelined_misses_count_once;
          Alcotest.test_case "a negated count is two hits" `Quick negated_from_two_hits;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "metrics request scrapes the registry" `Quick
            metrics_request_scrapes_registry;
          Alcotest.test_case "SLO counters" `Quick slo_counters_accumulate;
          Alcotest.test_case "overload rejections counted" `Quick
            overload_rejections_counted;
        ] );
      ( "line reader",
        [
          Alcotest.test_case "line split across reads" `Quick lr_split_across_reads;
          Alcotest.test_case "several lines in one read" `Quick
            lr_many_lines_one_read;
          Alcotest.test_case "final line without a newline" `Quick
            lr_final_line_without_newline;
          Alcotest.test_case "overlong line reported once" `Quick
            lr_overlong_reported_once;
          Alcotest.test_case "EOF while dropping" `Quick lr_eof_while_dropping;
          Alcotest.test_case "a wake fd stops a blocked reader" `Quick
            lr_wake_stops_reader;
        ] );
      ( "drain",
        [
          Alcotest.test_case "SIGTERM completes in-flight work" `Quick
            drain_completes_in_flight;
          Alcotest.test_case "drain ends the connection loop" `Quick
            draining_rejects_new_requests;
        ] );
    ]
