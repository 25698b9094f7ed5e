module Obs = Mcml_obs.Obs
module Json = Mcml_obs.Json
module Metrics = Mcml_obs.Metrics
module Probe = Mcml_obs.Probe
module Pool = Mcml_exec.Pool
module Memo = Mcml_exec.Memo
module Props = Mcml_props.Props
module Counter = Mcml_counting.Counter
module Bignat = Mcml_logic.Bignat

type config = {
  jobs : int;
  admission : int;
  queue_cap : int;
  cache : bool;
  cache_capacity : int;
  probe_interval_s : float;
  shard_id : int option;
  cache_dir : string option;
}

let default_config =
  {
    jobs = 1;
    admission = 64;
    queue_cap = 128;
    cache = true;
    cache_capacity = 4096;
    probe_interval_s = 1.0;
    shard_id = None;
    cache_dir = None;
  }

(* Request totals, kept as atomics (not Obs counters) so the [stats]
   response works even when no telemetry sink is installed. *)
type totals = {
  total : int Atomic.t;
  ok : int Atomic.t;
  bad_request : int Atomic.t;
  overloaded : int Atomic.t;
  timeout : int Atomic.t;
  drained : int Atomic.t;
  internal : int Atomic.t;
}

type t = {
  cfg : config;
  pool : Pool.t;
  cache : Counter.cache option;
  disk : Mcml_exec.Diskcache.t option;
      (** persistent tier behind [cache]; owned (and closed) here *)
  queries : Counter.query Memo.t;  (** prepared queries, see [prepare] *)
  inflight : int Atomic.t;  (** admitted counting requests not yet finished *)
  fe : Frontend.t;
  started : float;
  totals : totals;
}

(* Dynamic probe sources the server owns: registered at [create],
   removed at [shutdown], so a [metrics] scrape always carries fresh
   pool/cache/SLO gauges. *)
let probe_sources = [ "serve.inflight"; "serve.uptime_s"; "exec.pool.queue_depth";
                      "exec.count_cache.hit_ratio"; "exec.count_cache.size";
                      "serve.slo.deadline_hit_ratio"; "serve.request.p99_ms" ]

let register_probes t =
  Probe.register "serve.inflight" (fun () ->
      float_of_int (Atomic.get t.inflight));
  Probe.register "serve.uptime_s" (fun () -> Obs.monotonic_s () -. t.started);
  Probe.register "exec.pool.queue_depth" (fun () ->
      float_of_int (Pool.queue_depth t.pool));
  (match t.cache with
  | None -> ()
  | Some c ->
      Probe.register "exec.count_cache.hit_ratio" (fun () ->
          let s = Counter.cache_stats c in
          let total = s.Mcml_exec.Memo.hits + s.Mcml_exec.Memo.misses in
          if total = 0 then 1.0
          else float_of_int s.Mcml_exec.Memo.hits /. float_of_int total);
      Probe.register "exec.count_cache.size" (fun () ->
          float_of_int (Counter.cache_stats c).Mcml_exec.Memo.size));
  Probe.register "serve.slo.deadline_hit_ratio" (fun () ->
      let total = Obs.counter_value "serve.slo.deadline_requests" in
      if total <= 0.0 then 1.0
      else Obs.counter_value "serve.slo.deadline_hit" /. total);
  Probe.register "serve.request.p99_ms" (fun () ->
      match Obs.histogram_stats "serve.request" with
      | Some s -> s.Obs.p99
      | None -> 0.0)

(* Prepared queries a server keeps: the 16 study properties at scopes
   3-5 in both symmetry and negation modes are 192 keys per backend
   configuration (DESIGN.md §8).  A server that also answers them under
   a second configuration (an approximate seed, say) holds 384 and
   evicts in FIFO order: an evicted query is translated again. *)
let query_capacity = 256

let create cfg =
  let cfg = { cfg with jobs = max 1 cfg.jobs; admission = max 0 cfg.admission } in
  let disk =
    if cfg.cache then
      Option.map (fun dir -> Mcml_exec.Diskcache.open_ dir) cfg.cache_dir
    else None
  in
  let t =
    {
      cfg;
      pool = Pool.create ~jobs:cfg.jobs ();
      cache =
        (if cfg.cache then
           Some (Counter.cache_create ~capacity:cfg.cache_capacity ?disk ())
         else None);
      disk;
      queries = Memo.create ~capacity:query_capacity ~name:"serve.query_memo" ();
      inflight = Atomic.make 0;
      fe =
        Frontend.create ~conn_span:"serve.conn" ~queue_cap:cfg.queue_cap
          ~probe_interval_s:cfg.probe_interval_s;
      started = Obs.monotonic_s ();
      totals =
        {
          total = Atomic.make 0;
          ok = Atomic.make 0;
          bad_request = Atomic.make 0;
          overloaded = Atomic.make 0;
          timeout = Atomic.make 0;
          drained = Atomic.make 0;
          internal = Atomic.make 0;
        };
    }
  in
  register_probes t;
  t

let jobs t = Pool.jobs t.pool
let frontend t = t.fe
let draining t = Frontend.draining t.fe

let shutdown t =
  List.iter Probe.unregister probe_sources;
  Pool.shutdown t.pool;
  Option.iter Mcml_exec.Diskcache.close t.disk

(* Every response the server produces passes through here exactly once:
   totals for [stats], mirrored to Obs counters for traces. *)
let record t (resp : Protocol.response) =
  Atomic.incr t.totals.total;
  (match resp.Protocol.body with
  | Ok _ ->
      Atomic.incr t.totals.ok;
      Obs.add "serve.requests.ok" 1
  | Error (code, _) ->
      let cell =
        match code with
        | Protocol.Bad_request -> t.totals.bad_request
        | Protocol.Overloaded -> t.totals.overloaded
        | Protocol.Timeout -> t.totals.timeout
        | Protocol.Draining -> t.totals.drained
        | Protocol.Internal -> t.totals.internal
      in
      Atomic.incr cell;
      Obs.add ("serve.requests." ^ Protocol.code_name code) 1;
      if code = Protocol.Overloaded then
        Obs.add "serve.slo.overload_rejections" 1);
  resp

(* --- request execution -------------------------------------------------- *)

let resolve_scope (q : Protocol.query) =
  match q.scope with
  | Some s -> s
  | None ->
      Mcml.Experiments.scope_for Mcml.Experiments.fast q.prop ~symmetry:q.symmetry

(* One prepared query per (translation, backend) per server: a repeated
   count skips Alloy translation and Tseitin, and its kept query hands
   the count cache the key and hash it built the first time, so nothing
   on the hit path grows with the CNF.  The backend's part of the key
   keeps an exact and an approximate request apart.  The count cache
   stays keyed by the CNF's content, so its disk records never outlive
   a build that translates differently. *)
let prepare t (q : Protocol.query) ~scope =
  Memo.find_or_add t.queries
    ~key:
      (Memo.key
         (Printf.sprintf "%s|%d|%b|%b|%s" q.prop.Props.pred scope q.symmetry q.negate
            (Counter.backend_key q.backend)))
    (fun () ->
      Counter.query ~backend:q.backend
        (Mcml_alloy.Analyzer.cnf ~negate:q.negate ~symmetry:q.symmetry
           (Props.analyzer ~scope) ~pred:q.prop.Props.pred))

(* The deadline-to-budget mapping: the time left until the request's
   deadline clamps the counter budget, so deadline expiry takes the
   counters' existing timeout path.  [None] = already expired. *)
let clamp_budget ~deadline budget =
  match deadline with
  | None -> Some budget
  | Some d ->
      let remaining = d -. Obs.monotonic_s () in
      if remaining <= 0.0 then None else Some (Float.min budget remaining)

let expired = (Protocol.Timeout, "deadline expired before execution started")

let timed_out budget =
  (Protocol.Timeout, Printf.sprintf "count timed out (budget %.3gs)" budget)

let run_count t ~deadline (q : Protocol.query) =
  match clamp_budget ~deadline q.budget with
  | None -> Error expired
  | Some budget -> (
      let scope = resolve_scope q in
      match Counter.count ~budget ?cache:t.cache (prepare t q ~scope) with
      | Some o ->
          Ok
            (Json.Obj
               [
                 ("prop", Json.Str q.prop.Props.name);
                 ("scope", Json.Int scope);
                 ("symmetry", Json.Bool q.symmetry);
                 ("negate", Json.Bool q.negate);
                 ("backend", Json.Str (Counter.name q.backend));
                 ("count", Json.Str (Bignat.to_string o.Counter.count));
                 ("exact", Json.Bool o.Counter.exact);
                 ("time_s", Json.Float o.Counter.time);
               ])
      | None -> Error (timed_out budget))

(* The phi section of [mcml train-eval]: the same dataset and the same
   [Pipeline.train_eval] model, so a served answer equals the CLI's. *)
let run_accmc t ~deadline (q : Protocol.query) =
  match clamp_budget ~deadline q.budget with
  | None -> Error expired
  | Some budget -> (
      let scope = resolve_scope q in
      let data =
        Mcml.Pipeline.generate q.prop
          {
            Mcml.Pipeline.scope;
            symmetry = q.symmetry;
            max_positives = 3000;
            seed = q.seed;
          }
      in
      let m, _, test =
        Mcml.Pipeline.train_eval ~seed:q.seed Mcml_ml.Model.DT data.Mcml.Pipeline.dataset
      in
      let test_conf = Mcml_ml.Model.evaluate m test in
      match m.Mcml_ml.Model.tree with
      | None -> Error (Protocol.Internal, "DT training produced no tree")
      | Some tree -> (
          match
            Mcml.Pipeline.accmc ~budget ~pool:t.pool ?cache:t.cache
              ~backend:q.backend ~prop:q.prop ~scope ~eval_symmetry:q.symmetry
              tree
          with
          | None -> Error (timed_out budget)
          | Some counts ->
              let phi = Mcml.Accmc.confusion counts in
              Ok
                (Json.Obj
                   [
                     ("prop", Json.Str q.prop.Props.name);
                     ("scope", Json.Int scope);
                     ("symmetry", Json.Bool q.symmetry);
                     ("tp", Json.Str (Bignat.to_string counts.Mcml.Accmc.tp));
                     ("fp", Json.Str (Bignat.to_string counts.Mcml.Accmc.fp));
                     ("tn", Json.Str (Bignat.to_string counts.Mcml.Accmc.tn));
                     ("fn", Json.Str (Bignat.to_string counts.Mcml.Accmc.fn));
                     ("acc", Json.Float (Mcml_ml.Metrics.accuracy phi));
                     ("precision", Json.Float (Mcml_ml.Metrics.precision phi));
                     ("recall", Json.Float (Mcml_ml.Metrics.recall phi));
                     ("f1", Json.Float (Mcml_ml.Metrics.f1 phi));
                     ("test_acc", Json.Float (Mcml_ml.Metrics.accuracy test_conf));
                     ("test_f1", Json.Float (Mcml_ml.Metrics.f1 test_conf));
                     ("time_s", Json.Float counts.Mcml.Accmc.time);
                   ])))

(* [mcml diff]: DiffMC between the [Pipeline.diffmc_trees] pair. *)
let run_diffmc t ~deadline (q : Protocol.query) =
  match clamp_budget ~deadline q.budget with
  | None -> Error expired
  | Some budget -> (
      let scope = resolve_scope q in
      let data =
        Mcml.Pipeline.generate q.prop
          {
            Mcml.Pipeline.scope;
            symmetry = q.symmetry;
            max_positives = 3000;
            seed = q.seed;
          }
      in
      let t1, t2 = Mcml.Pipeline.diffmc_trees ~seed:q.seed data.Mcml.Pipeline.dataset in
      let nprimary = scope * scope in
      match
        Mcml.Diffmc.counts ~budget ~pool:t.pool ?cache:t.cache ~backend:q.backend
          ~nprimary t1 t2
      with
      | None -> Error (timed_out budget)
      | Some c ->
          Ok
            (Json.Obj
               [
                 ("prop", Json.Str q.prop.Props.name);
                 ("scope", Json.Int scope);
                 ("tt", Json.Str (Bignat.to_string c.Mcml.Diffmc.tt));
                 ("tf", Json.Str (Bignat.to_string c.Mcml.Diffmc.tf));
                 ("ft", Json.Str (Bignat.to_string c.Mcml.Diffmc.ft));
                 ("ff", Json.Str (Bignat.to_string c.Mcml.Diffmc.ff));
                 ("diff_pct", Json.Float (100.0 *. Mcml.Diffmc.diff c ~nprimary));
                 ("sim_pct", Json.Float (100.0 *. Mcml.Diffmc.sim c ~nprimary));
                 ("time_s", Json.Float c.Mcml.Diffmc.time);
               ]))

let cache_stats_json t =
  match t.cache with
  | None -> Json.Null
  | Some c ->
      let s = Counter.cache_stats c in
      Json.Obj
        [
          ("hits", Json.Int s.Mcml_exec.Memo.hits);
          ("misses", Json.Int s.Mcml_exec.Memo.misses);
          ("evictions", Json.Int s.Mcml_exec.Memo.evictions);
          ("size", Json.Int s.Mcml_exec.Memo.size);
          ("disk_hits", Json.Int s.Mcml_exec.Memo.backing_hits);
        ]

(* The optional shard stamp on health/stats payloads: lets the fleet
   router's fan-out merge stay attributable.  Absent (not null) when
   the server is not a shard, so pre-fleet clients see byte-identical
   responses. *)
let shard_field t =
  match t.cfg.shard_id with
  | None -> []
  | Some id -> [ ("shard", Json.Int id) ]

let health_json t =
  Json.Obj
    (shard_field t
    @ [
        ("status", Json.Str (if draining t then "draining" else "ok"));
        ("jobs", Json.Int (jobs t));
        ("inflight", Json.Int (Atomic.get t.inflight));
        ("queue_depth", Json.Int (Pool.queue_depth t.pool));
        ("uptime_s", Json.Float (Obs.monotonic_s () -. t.started));
      ])

let stats_json t =
  let g c = Json.Int (Atomic.get c) in
  Json.Obj
    (shard_field t
    @ [
      ( "requests",
        Json.Obj
          [
            ("total", g t.totals.total);
            ("ok", g t.totals.ok);
            ("bad_request", g t.totals.bad_request);
            ("overloaded", g t.totals.overloaded);
            ("timeout", g t.totals.timeout);
            ("draining", g t.totals.drained);
            ("internal", g t.totals.internal);
          ] );
      ("inflight", Json.Int (Atomic.get t.inflight));
      ("jobs", Json.Int (jobs t));
      ("cache", cache_stats_json t);
    ])

(* A [metrics] scrape: sample the probes first so the GC/rusage and
   dynamic gauges in the snapshot are current, not last-tick stale. *)
let metrics_json fmt =
  Probe.sample ();
  let snap = Metrics.snapshot () in
  match fmt with
  | `Json -> Ok (Metrics.to_json snap)
  | `Snapshot -> Ok (Metrics.snapshot_to_wire snap)
  | `Text ->
      Ok
        (Json.Obj
           [
             ("format", Json.Str "openmetrics");
             ("exposition", Json.Str (Metrics.to_openmetrics snap));
           ])

(* Execute one request under a [serve.request] span, which parents
   under the calling thread's span (a connection's, carried to a pool
   worker by [Pool.submit]).  A request carrying wire trace context
   overrides it: the caller's in-flight span (a fleet router) is the
   real parent, so the request span is adopted into that trace and the
   merged forest shows the cross-process edge instead of a local
   conn-span one. *)
let execute_in t ~deadline (req : Protocol.request) =
  let body = ref (Error (Protocol.Internal, "unreached")) in
  let run () =
    Obs.with_span "serve.request"
      ~attrs:(fun () ->
        [
          ("kind", Obs.Str (Protocol.kind_name req.Protocol.kind));
          ( "outcome",
            Obs.Str
              (match !body with
              | Ok _ -> "ok"
              | Error (code, _) -> Protocol.code_name code) );
        ])
      (fun () ->
        body :=
          (try
             match req.Protocol.kind with
             | Protocol.Health -> Ok (health_json t)
             | Protocol.Stats -> Ok (stats_json t)
             | Protocol.Metrics fmt -> metrics_json fmt
             | Protocol.Count q -> run_count t ~deadline q
             | Protocol.Accmc q -> run_accmc t ~deadline q
             | Protocol.Diffmc q -> run_diffmc t ~deadline q
           with
           | Mcml.Pipeline.Unbalanceable msg -> Error (Protocol.Bad_request, msg)
           | e -> Error (Protocol.Internal, Printexc.to_string e)))
  in
  (match req.Protocol.trace with
  | Some w when Obs.enabled () ->
      Obs.with_context
        (Obs.remote_context ~trace_id:w.Protocol.trace_id ~pid:w.Protocol.parent_pid
           ~span:w.Protocol.parent_span)
        run
  | _ -> run ());
  (* SLO accounting: a deadlined request that came back [Ok] met its
     deadline; one that timed out (expired before start or exhausted
     the clamped budget) missed it.  Other errors say nothing about
     the deadline and count as neither. *)
  (match req.Protocol.deadline_ms with
  | None -> ()
  | Some ms ->
      Obs.add "serve.slo.deadline_requests" 1;
      Obs.observe "serve.deadline_ms" ms;
      (match !body with
      | Ok _ -> Obs.add "serve.slo.deadline_hit" 1
      | Error (Protocol.Timeout, _) -> Obs.add "serve.slo.deadline_miss" 1
      | Error _ -> ()));
  record t { Protocol.rid = req.Protocol.id; body = !body }

(* the deadline clock starts now: at admission, or at a direct call *)
let deadline_of (req : Protocol.request) =
  Option.map
    (fun ms -> Obs.monotonic_s () +. (ms /. 1000.0))
    req.Protocol.deadline_ms

let execute t req = execute_in t ~deadline:(deadline_of req) req

(* --- connection handling ------------------------------------------------ *)

let admit t parsed =
  let now resp = Fun.const (record t resp) in
  match parsed with
  | Error (id, msg) -> now (Protocol.err ~id Protocol.Bad_request msg)
  | Ok req when draining t ->
      now (Protocol.err ~id:req.Protocol.id Protocol.Draining "server is draining")
  | Ok req -> (
      match req.Protocol.kind with
      | Protocol.Health | Protocol.Stats | Protocol.Metrics _ ->
          Fun.const (execute_in t ~deadline:None req)
      | Protocol.Count _ | Protocol.Accmc _ | Protocol.Diffmc _ ->
          (* fetch-and-add keeps the admission check exact when several
             connection readers race *)
          if Atomic.fetch_and_add t.inflight 1 >= t.cfg.admission then begin
            Atomic.decr t.inflight;
            now
              (Protocol.err ~id:req.Protocol.id Protocol.Overloaded
                 (Printf.sprintf "admission limit reached (%d requests in flight)"
                    t.cfg.admission))
          end
          else begin
            let deadline = deadline_of req in
            let fut =
              Pool.submit t.pool (fun () ->
                  Fun.protect
                    ~finally:(fun () -> Atomic.decr t.inflight)
                    (fun () -> execute_in t ~deadline req))
            in
            fun () ->
              try Pool.await fut
              with exn ->
                record t
                  (Protocol.err ~id:req.Protocol.id Protocol.Internal
                     (Printexc.to_string exn))
          end)

let handle_connection t = Frontend.handle_connection t.fe ~admit:(admit t)
