module Obs = Mcml_obs.Obs
module Json = Mcml_obs.Json
module Probe = Mcml_obs.Probe
module Metrics = Mcml_obs.Metrics
module Protocol = Mcml_serve.Protocol
module Frontend = Mcml_serve.Frontend

type dispatch = int -> Protocol.request -> Protocol.response

type config = {
  shards : int;
  vnodes : int;
  admission : int;
  queue_cap : int;
  probe_interval_s : float;
}

let default_config =
  { shards = 2; vnodes = 64; admission = 256; queue_cap = 128; probe_interval_s = 1.0 }

type keys = { ring : string; flight : string }

type t = {
  cfg : config;
  ring : Ring.t;
  dispatch : dispatch;
  shard_restarts : unit -> int array;
  flight : Protocol.response Single_flight.t;
  inflight : int Atomic.t;
  fe : Frontend.t;
  started : float;
  total : int Atomic.t;
  ok : int Atomic.t;
  errors : int Atomic.t;
  routed : int Atomic.t array;  (** counting requests per shard *)
}

let probe_sources = [ "fleet.inflight"; "fleet.uptime_s"; "fleet.dedup_ratio" ]

let register_probes t =
  Probe.register "fleet.inflight" (fun () -> float_of_int (Atomic.get t.inflight));
  Probe.register "fleet.uptime_s" (fun () -> Obs.monotonic_s () -. t.started);
  Probe.register "fleet.dedup_ratio" (fun () ->
      let leaders, followers = Single_flight.stats t.flight in
      let total = leaders + followers in
      if total = 0 then 0.0 else float_of_int followers /. float_of_int total)

let create ?(restarts = fun () -> [||]) cfg ~dispatch =
  let cfg =
    { cfg with shards = max 1 cfg.shards; admission = max 1 cfg.admission }
  in
  let t =
    {
      cfg;
      ring = Ring.create ~vnodes:cfg.vnodes ~shards:cfg.shards ();
      dispatch;
      shard_restarts = restarts;
      flight = Single_flight.create ~name:"fleet.singleflight" ();
      inflight = Atomic.make 0;
      fe =
        Frontend.create ~conn_span:"fleet.conn" ~queue_cap:cfg.queue_cap
          ~probe_interval_s:cfg.probe_interval_s;
      started = Obs.monotonic_s ();
      total = Atomic.make 0;
      ok = Atomic.make 0;
      errors = Atomic.make 0;
      routed = Array.init cfg.shards (fun _ -> Atomic.make 0);
    }
  in
  register_probes t;
  t

let frontend t = t.fe
let draining t = Frontend.draining t.fe
let shutdown _t = List.iter Probe.unregister probe_sources

let record t (resp : Protocol.response) =
  Atomic.incr t.total;
  (match resp.Protocol.body with
  | Ok _ ->
      Atomic.incr t.ok;
      Obs.add "fleet.requests.ok" 1
  | Error (code, _) ->
      Atomic.incr t.errors;
      Obs.add ("fleet.requests." ^ Protocol.code_name code) 1);
  resp

(* --- routing keys ---------------------------------------------------------- *)

(* The content identity of a counting request: its canonical JSON with
   the caller-specific fields (id, trace, deadline) removed.  The ring
   key also sets the budget to the default, so one query lands on one
   shard whatever budget it is asked under: the shard's count cache
   does not key by budget ({!Mcml_counting.Counter.cache}), and once a
   count finishes there it answers any budget.  The flight key keeps
   the budget, because a single-flight follower must not inherit the
   timeout of a leader that ran under a smaller budget.  Trace context
   is caller identity, never content: two identical requests from
   different traces must still dedup. *)
let routing_keys (req : Protocol.request) =
  let keys wrap (q : Protocol.query) =
    let canonical q =
      Json.to_string
        (Protocol.request_to_json
           { Protocol.id = Json.Null; trace = None; deadline_ms = None; kind = wrap q })
    in
    Some
      ({ ring = canonical { q with Protocol.budget = Protocol.default_budget }; flight = canonical q }
        : keys)
  in
  match req.Protocol.kind with
  | Protocol.Health | Protocol.Stats | Protocol.Metrics _ -> None
  | Protocol.Count q -> keys (fun q -> Protocol.Count q) q
  | Protocol.Accmc q -> keys (fun q -> Protocol.Accmc q) q
  | Protocol.Diffmc q -> keys (fun q -> Protocol.Diffmc q) q

let shard_of_key t key = Ring.shard t.ring key

(* --- fan-out / merge ------------------------------------------------------- *)

(* Ask every shard concurrently; latency is the slowest shard, not the
   sum, and a dead shard only stalls its own slot. *)
let fan_out t (req : Protocol.request) =
  let n = t.cfg.shards in
  let results = Array.make n None in
  let threads =
    Array.init n (fun i ->
        Thread.create
          (fun () ->
            results.(i) <-
              Some (t.dispatch i { req with Protocol.id = Json.Int i }))
          ())
  in
  Array.iter Thread.join threads;
  Array.mapi
    (fun i r ->
      match r with
      | Some resp -> resp
      | None ->
          Protocol.err ~id:(Json.Int i) Protocol.Internal "shard dispatch died")
    results

let int_member name payload =
  match Json.member name payload with Some (Json.Int i) -> i | _ -> 0

(* Sum one named sub-object (e.g. "requests", "cache") field-wise
   across the shard payloads that have it. *)
let sum_object sub fields payloads =
  Json.Obj
    (List.map
       (fun field ->
         let total =
           List.fold_left
             (fun acc payload ->
               match Json.member sub payload with
               | Some (Json.Obj _ as o) -> acc + int_member field o
               | _ -> acc)
             0 payloads
         in
         (field, Json.Int total))
       fields)

let shard_error_payload i code msg =
  Json.Obj
    [
      ("shard", Json.Int i);
      ("status", Json.Str "unreachable");
      ("error", Json.Str (Protocol.code_name code ^ ": " ^ msg));
    ]

let merge_health t responses =
  let payloads =
    Array.to_list
      (Array.mapi
         (fun i (r : Protocol.response) ->
           match r.Protocol.body with
           | Ok p -> (true, p)
           | Error (code, msg) -> (false, shard_error_payload i code msg))
         responses)
  in
  let up = List.length (List.filter fst payloads) in
  let restarts = Array.fold_left ( + ) 0 (t.shard_restarts ()) in
  Ok
    (Json.Obj
       [
         ( "status",
           Json.Str
             (if draining t then "draining"
              else if up = t.cfg.shards then "ok"
              else if up > 0 then "degraded"
              else "down") );
         ("shards_total", Json.Int t.cfg.shards);
         ("shards_up", Json.Int up);
         ("restarts", Json.Int restarts);
         ("uptime_s", Json.Float (Obs.monotonic_s () -. t.started));
         ("shards", Json.List (List.map snd payloads));
       ])

let request_fields =
  [ "total"; "ok"; "bad_request"; "overloaded"; "timeout"; "draining"; "internal" ]

let cache_fields = [ "hits"; "misses"; "evictions"; "size"; "disk_hits" ]

let merge_stats t responses =
  let payloads =
    Array.to_list
      (Array.mapi
         (fun i (r : Protocol.response) ->
           match r.Protocol.body with
           | Ok p -> p
           | Error (code, msg) -> shard_error_payload i code msg)
         responses)
  in
  let leaders, followers = Single_flight.stats t.flight in
  let router =
    Json.Obj
      [
        ("total", Json.Int (Atomic.get t.total));
        ("ok", Json.Int (Atomic.get t.ok));
        ("errors", Json.Int (Atomic.get t.errors));
        ("inflight", Json.Int (Atomic.get t.inflight));
        ("singleflight_leaders", Json.Int leaders);
        ("singleflight_dedup", Json.Int followers);
        ( "routed",
          Json.List
            (Array.to_list (Array.map (fun a -> Json.Int (Atomic.get a)) t.routed))
        );
        ( "restarts",
          Json.List
            (Array.to_list
               (Array.map (fun r -> Json.Int r) (t.shard_restarts ()))) );
      ]
  in
  (* the fleet-wide aggregates come before the per-shard detail so
     "everything above `shards`" reads as one coherent summary *)
  Ok
    (Json.Obj
       [
         ("requests", sum_object "requests" request_fields payloads);
         ("cache", sum_object "cache" cache_fields payloads);
         ("router", router);
         ("shards", Json.List payloads);
       ])

(* The fleet always asks its shards for the full-fidelity snapshot
   (raw histogram buckets, schema mcml.metrics.snapshot.v1) whatever
   format the caller wanted: text and json are then rendered from the
   merged data, so histograms aggregate bucket-wise instead of the
   old lint-breaking exposition concatenation. *)
let merge_metrics fmt responses =
  let shards =
    Array.to_list
      (Array.mapi
         (fun i (r : Protocol.response) ->
           match r.Protocol.body with
           | Ok p -> (
               match Metrics.snapshot_of_wire p with
               | Ok snap -> (i, Ok snap)
               | Error msg -> (i, Error msg))
           | Error (code, msg) ->
               (i, Error (Protocol.code_name code ^ ": " ^ msg)))
         responses)
  in
  Probe.sample ();
  let router = Metrics.snapshot () in
  match fmt with
  | `Json -> Ok (Metrics.fleet_to_json ~router ~shards)
  | `Snapshot ->
      (* a fleet has no single registry to ship raw; answer with the
         router's own, the only one this process can vouch for *)
      Ok (Metrics.snapshot_to_wire router)
  | `Text ->
      Ok
        (Json.Obj
           [
             ("format", Json.Str "openmetrics");
             ("exposition", Json.Str (Metrics.fleet_to_openmetrics ~router ~shards));
           ])

(* --- execution ------------------------------------------------------------- *)

let execute_admin t (req : Protocol.request) =
  let fan_req =
    match req.Protocol.kind with
    | Protocol.Metrics _ ->
        { req with Protocol.kind = Protocol.Metrics `Snapshot }
    | _ -> req
  in
  let responses = fan_out t fan_req in
  let body =
    match req.Protocol.kind with
    | Protocol.Health -> merge_health t responses
    | Protocol.Stats -> merge_stats t responses
    | Protocol.Metrics fmt -> merge_metrics fmt responses
    | _ -> assert false
  in
  { Protocol.rid = req.Protocol.id; body }

(* --- trace propagation ------------------------------------------------------ *)

let wire_of_propagation () =
  Option.map
    (fun (trace_id, parent_pid, parent_span) ->
      { Protocol.trace_id; parent_pid; parent_span })
    (Obs.propagation ())

(* Establish the trace under which this request executes: adopt the
   caller's wire context when the request carries one, otherwise open
   a fresh trace id — so every routed request belongs to exactly one
   trace and the shard dispatch below can stamp it onward. *)
let with_request_trace (req : Protocol.request) f =
  if not (Obs.enabled ()) then f ()
  else
    match req.Protocol.trace with
    | Some w ->
        Obs.with_context
          (Obs.remote_context ~trace_id:w.Protocol.trace_id
             ~pid:w.Protocol.parent_pid ~span:w.Protocol.parent_span)
          f
    | None -> Obs.with_new_trace f

let execute_count t (keys : keys) (req : Protocol.request) =
  if Atomic.fetch_and_add t.inflight 1 >= t.cfg.admission then begin
    Atomic.decr t.inflight;
    Protocol.err ~id:req.Protocol.id Protocol.Overloaded
      (Printf.sprintf "fleet admission limit reached (%d requests in flight)"
         t.cfg.admission)
  end
  else
    Fun.protect
      ~finally:(fun () -> Atomic.decr t.inflight)
      (fun () ->
        let shard = shard_of_key t keys.ring in
        Atomic.incr t.routed.(shard);
        let led = ref false in
        let resp = ref (Protocol.err ~id:Json.Null Protocol.Internal "unreached") in
        with_request_trace req (fun () ->
            Obs.with_span "fleet.route"
              ~attrs:(fun () ->
                [
                  ("kind", Obs.Str (Protocol.kind_name req.Protocol.kind));
                  ("shard", Obs.Int shard);
                  ("dedup", Obs.Bool (not !led));
                ])
              (fun () ->
                let r, l =
                  try
                    (* the flight key keeps the budget, so every
                       concurrent identical request shares this one
                       upstream call; the shared response is re-stamped
                       with each caller's own id below.  The dispatched
                       request carries the leader's trace context, so
                       the shard's serve.request span parents under
                       this fleet.route span in a merged forest
                       (followers share the leader's subtree). *)
                    Single_flight.run t.flight ~key:keys.flight (fun () ->
                        t.dispatch shard
                          {
                            req with
                            Protocol.id = Json.Null;
                            trace = wire_of_propagation ();
                          })
                  with e ->
                    (Protocol.err ~id:Json.Null Protocol.Internal (Printexc.to_string e), true)
                in
                resp := r;
                led := l));
        { !resp with Protocol.rid = req.Protocol.id })

let execute t (req : Protocol.request) =
  record t
    (if draining t then
       Protocol.err ~id:req.Protocol.id Protocol.Draining "fleet is draining"
     else
       match routing_keys req with
       | None -> execute_admin t req
       | Some keys -> execute_count t keys req)

(* --- connection handling ---------------------------------------------------- *)

(* the front end's queue_cap bounds the request threads per connection;
   each starts under the connection span, like a pool task *)
let admit t = function
  | Error (id, msg) -> Fun.const (record t (Protocol.err ~id Protocol.Bad_request msg))
  | Ok req ->
      let resp = ref (Protocol.err ~id:req.Protocol.id Protocol.Internal "unreached") in
      let ctx = Obs.current_context () in
      let th =
        Thread.create
          (fun () ->
            resp :=
              Obs.with_context ctx (fun () ->
                  try execute t req
                  with e ->
                    record t
                      (Protocol.err ~id:req.Protocol.id Protocol.Internal
                         (Printexc.to_string e))))
          ()
      in
      fun () ->
        Thread.join th;
        !resp

let handle_connection t = Frontend.handle_connection t.fe ~admit:(admit t)
