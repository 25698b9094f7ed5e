(* Benchmark harness: regenerates every experimental table of the paper
   (Tables 1-9) in the scaled-down "fast" configuration, then the
   symmetry-breaking ablation.

   Usage:
     dune exec bench/main.exe              # tables + ablation
     dune exec bench/main.exe -- --table 3 # one table only
     dune exec bench/main.exe -- --budget 120 --seed 1
     dune exec bench/main.exe -- --table 1 --jobs 4 --json out.json *)

open Mcml
open Mcml_props

let fmt = Format.std_formatter

(* ---------------------------------------------------------------------- *)
(* Table regeneration                                                      *)
(* ---------------------------------------------------------------------- *)

let banner title =
  Format.fprintf fmt "@.=== %s ===@.@." title

(* Every table prints its own title, so a blank line separates them. *)
let run_table cfg n =
  match Report.table fmt cfg n with
  | Ok () -> Format.fprintf fmt "@."
  | Error msg ->
      Format.eprintf "bench: %s@." msg;
      exit 2

(* ---------------------------------------------------------------------- *)
(* Machine-readable summary (--json)                                       *)
(* ---------------------------------------------------------------------- *)

(* Each timed section records its wall time, the delta of every
   telemetry counter across the section, and the per-section latency
   distributions (histogram snapshots diffed across the section;
   counters and histograms accumulate when a non-null sink is
   installed — --json installs the cheap [stats_only] sink for exactly
   this purpose). *)
type section = {
  sec_name : string;
  sec_wall : float;
  sec_counters : (string * float) list;
  sec_latency : (string * Mcml_obs.Obs.hist_stats) list;
}

let sections : section list ref = ref []

(* Summary of the --serve benchmark (set by [run_serve], emitted by
   [write_json] under the optional "serve" key). *)
let serve_summary : Mcml_obs.Json.t option ref = ref None

let timed name f =
  let c0 = Mcml_obs.Obs.counters () in
  let h0 = Mcml_obs.Obs.histogram_copies () in
  let t0 = Mcml_obs.Obs.monotonic_s () in
  f ();
  let wall = Mcml_obs.Obs.monotonic_s () -. t0 in
  let c1 = Mcml_obs.Obs.counters () in
  let delta =
    List.filter_map
      (fun (k, v1) ->
        let v0 = Option.value (List.assoc_opt k c0) ~default:0.0 in
        if v1 -. v0 <> 0.0 then Some (k, v1 -. v0) else None)
      c1
  in
  let latency =
    List.filter_map
      (fun (k, h) ->
        let d =
          match List.assoc_opt k h0 with
          | Some prev -> Mcml_obs.Obs.Histogram.diff h prev
          | None -> h
        in
        Option.map (fun s -> (k, s)) (Mcml_obs.Obs.Histogram.stats d))
      (Mcml_obs.Obs.histogram_copies ())
  in
  sections :=
    { sec_name = name; sec_wall = wall; sec_counters = delta; sec_latency = latency }
    :: !sections

(* Latency histograms the regression gate compares alongside section
   walls: a counter rewrite can regress its per-call latency (what its
   acceptance criteria are stated in) while hiding inside a section's
   wall-clock noise, so the two counting distributions are first-class
   gate subjects, and so is the exact AccMC query (compile once,
   condition on the tree's paths), which no longer makes count
   queries.  So are positive enumeration and the dataset generation
   around it, which every table pays for.  The gated
   statistic is the *median*: with ~32-100 calls per section the p99
   is the single slowest sample, and one scheduler or major-GC hiccup
   moves it 5-6x run-to-run on a shared host (observed on sections
   whose code hadn't changed at all), while the median is stable
   within ~1.3x yet still moves by the full rewrite factor when an
   optimization is reverted.  The p99 ratio is printed alongside for
   the record, unvetoed.  Keys absent from either run are skipped. *)
let gated_latency_keys =
  [
    "counter.count.approx_ms";
    "counter.count.exact_ms";
    "accmc.counts";
    "sat.enumerate";
    "pipeline.generate";
  ]

(* Per-section baseline wall times — and the p99 of every gated latency
   key the section carries — out of a previous --json summary (a
   jobs=1 run): speedup_vs_jobs1 fields and the --gate regression
   check.  Any unusable baseline — unreadable, unparsable, or without
   a single (name, wall_s) section — is a hard exit 2, never a silent
   "as if no baseline was given": the CI gate must not pass vacuously. *)
let read_baseline path =
  let open Mcml_obs in
  let text =
    try
      let ic = open_in path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    with Sys_error msg ->
      Format.eprintf "bench: cannot read --baseline %s: %s@." path msg;
      exit 2
  in
  match Json.of_string text with
  | Error msg ->
      Format.eprintf "bench: cannot parse --baseline %s: %s@." path msg;
      exit 2
  | Ok doc -> (
      (* a pre-v3 summary lacks the percentile fields the gate and the
         speedup report assume; name the schema we need instead of
         failing later with a confusing "no usable sections" *)
      let expected = "mcml.bench.v3" in
      (match Json.member "schema" doc with
      | Some (Json.Str s) when s = expected -> ()
      | Some (Json.Str s) ->
          Format.eprintf
            "bench: --baseline %s has schema %S but this binary needs %S — \
             regenerate it with the current bench --json@."
            path s expected;
          exit 2
      | _ ->
          Format.eprintf
            "bench: --baseline %s carries no \"schema\" field (expected %S) — \
             it predates the versioned summary format; regenerate it with the \
             current bench --json@."
            path expected;
          exit 2);
      match Json.member "sections" doc with
      | Some (Json.List secs) -> (
          match
            List.filter_map
              (fun s ->
                match
                  ( Json.member "name" s,
                    Option.bind (Json.member "wall_s" s) Json.to_float_opt )
                with
                | Some (Json.Str name), Some wall ->
                    let lat =
                      List.filter_map
                        (fun key ->
                          Option.bind (Json.member "latency" s) (fun l ->
                              Option.bind (Json.member key l) (fun h ->
                                  let f name =
                                    Option.bind (Json.member name h)
                                      Json.to_float_opt
                                  in
                                  match (f "p50_ms", f "p99_ms") with
                                  | Some p50, Some p99 -> Some (key, (p50, p99))
                                  | _ -> None)))
                        gated_latency_keys
                    in
                    Some (name, (wall, lat))
                | _ -> None)
              secs
          with
          | [] ->
              Format.eprintf "bench: --baseline %s has no usable sections@." path;
              exit 2
          | base -> base)
      | _ ->
          Format.eprintf "bench: --baseline %s has no sections@." path;
          exit 2)

(* The regression gate: every section that appears in both runs must
   not have slowed down by more than [factor] — its wall time, and the
   median of every gated latency key both runs recorded (how a counter
   rewrite's win is held across later PRs even when the section wall
   absorbs it).  Sections (and latencies) below a small absolute floor
   in both runs are skipped — at that scale the ratio measures
   scheduler noise, not the code.  Exit 1 on violation so bin/check.sh
   can gate on it. *)
let gate_floor_s = 0.05
let gate_floor_ms = 20.0

let run_gate ~factor ~baseline =
  let violations = ref 0 and compared = ref 0 in
  Format.fprintf fmt "@.=== regression gate (fail on >%.2fx slowdown) ===@." factor;
  List.iter
    (fun { sec_name; sec_wall; sec_latency; _ } ->
      match List.assoc_opt sec_name baseline with
      | None -> ()
      | Some (base, _) when base < gate_floor_s && sec_wall < gate_floor_s ->
          Format.fprintf fmt "  %-12s %8.3fs vs %8.3fs  (below noise floor, skipped)@."
            sec_name sec_wall base
      | Some (base, base_lat) ->
          incr compared;
          let ratio = if base > 0.0 then sec_wall /. base else Float.infinity in
          let verdict = if ratio > factor then (incr violations; "FAIL") else "ok" in
          Format.fprintf fmt "  %-12s %8.3fs vs %8.3fs  %5.2fx  %s@." sec_name
            sec_wall base ratio verdict;
          List.iter
            (fun (key, (base_p50, base_p99)) ->
              match List.assoc_opt key sec_latency with
              | None -> ()
              | Some (st : Mcml_obs.Obs.hist_stats) ->
                  let p50 = st.Mcml_obs.Obs.p50 and p99 = st.Mcml_obs.Obs.p99 in
                  if base_p50 < gate_floor_ms && p50 < gate_floor_ms then ()
                  else begin
                    incr compared;
                    let ratio =
                      if base_p50 > 0.0 then p50 /. base_p50 else Float.infinity
                    in
                    let verdict =
                      if ratio > factor then (incr violations; "FAIL") else "ok"
                    in
                    Format.fprintf fmt
                      "    %s p50 %7.1fms vs %7.1fms  %5.2fx  %s  (p99 %.1fms \
                       vs %.1fms, unvetoed)@."
                      key p50 base_p50 ratio verdict p99 base_p99
                  end)
            base_lat)
    (List.rev !sections);
  if !compared = 0 then begin
    Format.eprintf "bench: --gate matched no section against the baseline@.";
    exit 2
  end;
  if !violations > 0 then begin
    Format.eprintf "bench: regression gate FAILED (%d section(s) over %.2fx)@."
      !violations factor;
    exit 1
  end;
  Format.fprintf fmt "  gate passed (%d section(s) compared)@." !compared

(* End-of-run runtime section: peak RSS / CPU time from getrusage, the
   GC totals, and a final probe snapshot of every gauge — so a stored
   BENCH_*.json tracks memory alongside latency.  Additive to schema
   v3: [--gate] reads only "sections", so old baselines keep working. *)
let runtime_json () =
  let open Mcml_obs in
  let num v =
    if Float.is_integer v && Float.abs v < 1e15 then Json.Int (int_of_float v)
    else Json.Float v
  in
  Probe.sample ();
  let ru = Probe.rusage () in
  let g = Gc.quick_stat () in
  Json.Obj
    [
      ("max_rss_bytes", num ru.Probe.max_rss_bytes);
      ("cpu_user_s", Json.Float ru.Probe.user_s);
      ("cpu_sys_s", Json.Float ru.Probe.sys_s);
      ( "gc",
        Json.Obj
          [
            ("minor_words", num g.Gc.minor_words);
            ("promoted_words", num g.Gc.promoted_words);
            ("major_words", num g.Gc.major_words);
            ("heap_words", Json.Int g.Gc.heap_words);
            ("minor_collections", Json.Int g.Gc.minor_collections);
            ("major_collections", Json.Int g.Gc.major_collections);
            ("compactions", Json.Int g.Gc.compactions);
          ] );
      ("gauges", Json.Obj (List.map (fun (k, v) -> (k, num v)) (Obs.gauges ())));
    ]

let write_json path ~seed ~budget ~jobs ~cache ~baseline ~total =
  let open Mcml_obs in
  let num v =
    if Float.is_integer v && Float.abs v < 1e15 then Json.Int (int_of_float v)
    else Json.Float v
  in
  let hist_json (s : Mcml_obs.Obs.hist_stats) =
    Json.Obj
      [
        ("count", Json.Int s.Mcml_obs.Obs.count);
        ("p50_ms", Json.Float s.Mcml_obs.Obs.p50);
        ("p90_ms", Json.Float s.Mcml_obs.Obs.p90);
        ("p99_ms", Json.Float s.Mcml_obs.Obs.p99);
        ("max_ms", Json.Float s.Mcml_obs.Obs.max);
      ]
  in
  let section { sec_name; sec_wall; sec_counters; sec_latency } =
    let speedup =
      match List.assoc_opt sec_name baseline with
      | Some (base, _) when sec_wall > 0.0 ->
          [ ("speedup_vs_jobs1", Json.Float (base /. sec_wall)) ]
      | _ -> []
    in
    Json.Obj
      ([ ("name", Json.Str sec_name); ("wall_s", Json.Float sec_wall) ]
      @ speedup
      @ [
          ("counters", Json.Obj (List.map (fun (k, v) -> (k, num v)) sec_counters));
          ("latency", Json.Obj (List.map (fun (k, s) -> (k, hist_json s)) sec_latency));
        ])
  in
  let ch, cm, ce =
    match cache with
    | None -> (0, 0, 0)
    | Some c ->
        let s = Mcml_counting.Counter.cache_stats c in
        Mcml_exec.Memo.(s.hits, s.misses, s.evictions)
  in
  let doc =
    Json.Obj
      ([
        ("schema", Json.Str "mcml.bench.v3");
        ("seed", Json.Int seed);
        ("budget_s", Json.Float budget);
        ("jobs", Json.Int jobs);
        ("cache_enabled", Json.Bool (Option.is_some cache));
        ("cache_hits", Json.Int ch);
        ("cache_misses", Json.Int cm);
        ("cache_evictions", Json.Int ce);
        ("total_wall_s", Json.Float total);
        ("sections", Json.List (List.rev_map section !sections));
      ]
      @ (match !serve_summary with
        | None -> []
        | Some s -> [ ("serve", s) ])
      @ [
        ("counters_total", Json.Obj (List.map (fun (k, v) -> (k, num v)) (Obs.counters ())));
        ("runtime", runtime_json ());
      ])
  in
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Format.fprintf fmt "wrote %s@." path

(* ---------------------------------------------------------------------- *)
(* Serve-mode benchmark (--serve)                                          *)
(* ---------------------------------------------------------------------- *)

(* Measures the counting service against direct execution of the same
   requests: the protocol + pool + connection machinery is the only
   difference, so the gap is the serving overhead.  Latencies go into
   local histograms (usable without any telemetry sink installed); the
   summary lands in --json under the optional "serve" key. *)
(* [jitter] > 0 perturbs each request's budget by [jitter * id].  The
   budget is part of the fleet router's routing key (printed %h, so any
   float difference separates keys), so no two requests are merged by
   its single-flight.  The count cache does not key by budget: the
   fleet bench turns it off to keep every request really counting. *)
let serve_requests ?(jitter = 0.0) ~budget ~seed () =
  let props =
    List.map Props.find_exn
      [ "Reflexive"; "Irreflexive"; "Antisymmetric"; "Transitive"; "PartialOrder" ]
  in
  List.concat
    (List.map
       (fun round ->
         List.concat
           (List.map
              (fun scope ->
                List.mapi
                  (fun i prop ->
                    let id = (round * 100) + (scope * 10) + i in
                    {
                      Mcml_serve.Protocol.id = Mcml_obs.Json.Int id;
                      trace = None;
                      deadline_ms = None;
                      kind =
                        Mcml_serve.Protocol.Count
                          {
                            Mcml_serve.Protocol.prop;
                            scope = Some scope;
                            symmetry = false;
                            negate = false;
                            backend = Mcml_counting.Counter.Exact;
                            budget = budget +. (jitter *. float_of_int id);
                            seed;
                          };
                    })
                  props)
              [ 3; 4 ]))
       [ 0; 1; 2; 3 ])

let hist_summary h =
  match Mcml_obs.Obs.Histogram.stats h with
  | None -> []
  | Some s ->
      let open Mcml_obs in
      [
        ("p50_ms", Json.Float s.Obs.p50);
        ("p90_ms", Json.Float s.Obs.p90);
        ("p99_ms", Json.Float s.Obs.p99);
        ("max_ms", Json.Float s.Obs.max);
      ]

let run_serve ~jobs ~budget ~seed ~use_cache =
  banner "serve mode: served requests vs direct execution";
  let open Mcml_obs in
  let open Mcml_serve in
  let now = Obs.monotonic_s in
  let reqs = serve_requests ~budget ~seed () in
  let n = List.length reqs in
  let fail_on_error (resp : Protocol.response) =
    match resp.Protocol.body with
    | Ok _ -> ()
    | Error (code, msg) ->
        Format.eprintf "bench: serve request failed (%s): %s@."
          (Protocol.code_name code) msg;
        exit 2
  in
  (* direct baseline: the same computations, no protocol, no pool hop *)
  let h_direct = Obs.Histogram.create () in
  let direct_wall =
    let srv =
      Server.create { Server.default_config with Server.cache = use_cache }
    in
    let t0 = now () in
    List.iter
      (fun r ->
        let t = now () in
        fail_on_error (Server.execute srv r);
        Obs.Histogram.observe h_direct ((now () -. t) *. 1000.0))
      reqs;
    let w = now () -. t0 in
    Server.shutdown srv;
    w
  in
  (* served, closed loop: one request in flight, per-request round trip *)
  let h_rtt = Obs.Histogram.create () in
  let srv =
    Server.create { Server.default_config with Server.jobs; cache = use_cache }
  in
  let connect () =
    let sfd, cfd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let handler =
      Thread.create
        (fun () ->
          let oc = Unix.out_channel_of_descr sfd in
          Server.handle_connection srv ~input:sfd ~output:oc;
          try close_out oc with Sys_error _ -> ())
        ()
    in
    (cfd, Unix.in_channel_of_descr cfd, Unix.out_channel_of_descr cfd, handler)
  in
  let send oc r =
    output_string oc (Json.to_string (Protocol.request_to_json r));
    output_char oc '\n';
    flush oc
  in
  let recv ic =
    match Protocol.response_of_string (input_line ic) with
    | Ok resp ->
        fail_on_error resp;
        resp
    | Error msg ->
        Format.eprintf "bench: malformed serve response: %s@." msg;
        exit 2
  in
  let closed_wall =
    let cfd, ic, oc, handler = connect () in
    let t0 = now () in
    List.iter
      (fun r ->
        let t = now () in
        send oc r;
        ignore (recv ic);
        Obs.Histogram.observe h_rtt ((now () -. t) *. 1000.0))
      reqs;
    let w = now () -. t0 in
    Unix.shutdown cfd Unix.SHUTDOWN_SEND;
    Thread.join handler;
    close_in_noerr ic;
    w
  in
  (* served, pipelined: every request written before the first read —
     queueing, admission and in-order write-back under burst load *)
  let pipelined_wall =
    let cfd, ic, oc, handler = connect () in
    let t0 = now () in
    List.iter (fun r -> send oc r) reqs;
    Unix.shutdown cfd Unix.SHUTDOWN_SEND;
    List.iter (fun _ -> ignore (recv ic)) reqs;
    let w = now () -. t0 in
    Thread.join handler;
    close_in_noerr ic;
    w
  in
  Server.shutdown srv;
  let rps w = float_of_int n /. w in
  let pct h p = Obs.Histogram.percentile h p in
  Format.fprintf fmt "%d count requests, jobs=%d, cache=%b@." n jobs use_cache;
  Format.fprintf fmt
    "  direct    : %7.3fs  %8.1f req/s   p50=%.3fms p90=%.3fms p99=%.3fms@."
    direct_wall (rps direct_wall) (pct h_direct 0.5) (pct h_direct 0.9)
    (pct h_direct 0.99);
  Format.fprintf fmt
    "  closed    : %7.3fs  %8.1f req/s   p50=%.3fms p90=%.3fms p99=%.3fms@."
    closed_wall (rps closed_wall) (pct h_rtt 0.5) (pct h_rtt 0.9) (pct h_rtt 0.99);
  Format.fprintf fmt "  pipelined : %7.3fs  %8.1f req/s@." pipelined_wall
    (rps pipelined_wall);
  serve_summary :=
    Some
      (Json.Obj
         [
           ("requests", Json.Int n);
           ("jobs", Json.Int jobs);
           ("cache_enabled", Json.Bool use_cache);
           ( "direct",
             Json.Obj
               ([
                  ("wall_s", Json.Float direct_wall);
                  ("throughput_rps", Json.Float (rps direct_wall));
                ]
               @ hist_summary h_direct) );
           ( "closed_loop",
             Json.Obj
               ([
                  ("wall_s", Json.Float closed_wall);
                  ("throughput_rps", Json.Float (rps closed_wall));
                ]
               @ hist_summary h_rtt) );
           ( "pipelined",
             Json.Obj
               [
                 ("wall_s", Json.Float pipelined_wall);
                 ("throughput_rps", Json.Float (rps pipelined_wall));
               ] );
         ])

(* ---------------------------------------------------------------------- *)
(* Fleet-mode serve benchmark (--serve --fleet)                            *)
(* ---------------------------------------------------------------------- *)

(* One in-process counting shard behind its own domain: the dispatch
   hook hands a request to the shard's queue and blocks until the
   domain has executed it.  Domains (not systhreads) so the shards'
   compute actually runs in parallel where cores exist — the same
   reason [mcml fleet] uses processes. *)
type fleet_job = {
  fj_req : Mcml_serve.Protocol.request;
  mutable fj_resp : Mcml_serve.Protocol.response option;
  fj_m : Mutex.t;
  fj_cv : Condition.t;
}

type fleet_worker = {
  fw_srv : Mcml_serve.Server.t;
  fw_q : fleet_job Queue.t;
  fw_m : Mutex.t;
  fw_cv : Condition.t;
  mutable fw_stop : bool;
}

(* The fleet bench measures cache-miss traffic: every server it builds
   has its count cache off. *)
let miss_server () =
  Mcml_serve.Server.create { Mcml_serve.Server.default_config with cache = false }

let fleet_worker_create () =
  let open Mcml_serve in
  let srv = miss_server () in
  let w =
    {
      fw_srv = srv;
      fw_q = Queue.create ();
      fw_m = Mutex.create ();
      fw_cv = Condition.create ();
      fw_stop = false;
    }
  in
  let dom =
    Domain.spawn (fun () ->
        let rec loop () =
          Mutex.lock w.fw_m;
          let rec next () =
            if not (Queue.is_empty w.fw_q) then Some (Queue.pop w.fw_q)
            else if w.fw_stop then None
            else begin
              Condition.wait w.fw_cv w.fw_m;
              next ()
            end
          in
          let job = next () in
          Mutex.unlock w.fw_m;
          match job with
          | None -> ()
          | Some j ->
              let resp =
                try Server.execute srv j.fj_req
                with e ->
                  Protocol.err ~id:j.fj_req.Protocol.id Protocol.Internal
                    (Printexc.to_string e)
              in
              Mutex.lock j.fj_m;
              j.fj_resp <- Some resp;
              Condition.broadcast j.fj_cv;
              Mutex.unlock j.fj_m;
              loop ()
        in
        loop ())
  in
  (w, dom)

let fleet_worker_stop (w, dom) =
  Mutex.lock w.fw_m;
  w.fw_stop <- true;
  Condition.broadcast w.fw_cv;
  Mutex.unlock w.fw_m;
  Domain.join dom;
  Mcml_serve.Server.shutdown w.fw_srv

let fleet_dispatch workers shard req =
  let w, _ = workers.(shard) in
  let j =
    { fj_req = req; fj_resp = None; fj_m = Mutex.create (); fj_cv = Condition.create () }
  in
  Mutex.lock w.fw_m;
  Queue.push j w.fw_q;
  Condition.signal w.fw_cv;
  Mutex.unlock w.fw_m;
  Mutex.lock j.fj_m;
  while j.fj_resp = None do
    Condition.wait j.fj_cv j.fj_m
  done;
  Mutex.unlock j.fj_m;
  Option.get j.fj_resp

let run_fleet_serve ~shards ~budget ~seed =
  banner
    (Printf.sprintf "serve fleet mode: %d-shard router vs one server, cache-miss traffic"
       shards);
  let open Mcml_obs in
  let open Mcml_serve in
  let module Router = Mcml_fleet.Router in
  let now = Obs.monotonic_s in
  let reqs = serve_requests ~jitter:1e-9 ~budget ~seed () in
  let n = List.length reqs in
  (* pipeline the whole list through one JSONL connection: write every
     request, half-close, read every response — the fleet's burst shape *)
  let pipeline handle =
    let sfd, cfd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let handler =
      Thread.create
        (fun () ->
          let oc = Unix.out_channel_of_descr sfd in
          (handle ~input:sfd ~output:oc : unit);
          try close_out oc with Sys_error _ -> ())
        ()
    in
    let ic = Unix.in_channel_of_descr cfd in
    let oc = Unix.out_channel_of_descr cfd in
    let t0 = now () in
    List.iter
      (fun r ->
        output_string oc (Json.to_string (Protocol.request_to_json r));
        output_char oc '\n')
      reqs;
    flush oc;
    Unix.shutdown cfd Unix.SHUTDOWN_SEND;
    let resps =
      List.map
        (fun _ ->
          match Protocol.response_of_string (input_line ic) with
          | Ok resp -> resp
          | Error msg ->
              Format.eprintf "bench: malformed fleet response: %s@." msg;
              exit 2)
        reqs
    in
    let w = now () -. t0 in
    Thread.join handler;
    close_in_noerr ic;
    (w, resps)
  in
  (* the answers that matter: id -> count, errors are a bench failure *)
  let counts resps =
    List.map
      (fun (r : Protocol.response) ->
        match r.Protocol.body with
        | Error (code, msg) ->
            Format.eprintf "bench: fleet request %s failed (%s): %s@."
              (Json.to_string r.Protocol.rid) (Protocol.code_name code) msg;
            exit 2
        | Ok payload ->
            let c =
              match Json.member "count" payload with
              | Some (Json.Str s) -> s
              | _ -> Json.to_string payload
            in
            (Json.to_string r.Protocol.rid, c))
      resps
    |> List.sort compare
  in
  let single_wall, single_resps =
    let srv = miss_server () in
    let r = pipeline (Server.handle_connection srv) in
    Server.shutdown srv;
    r
  in
  let fleet_wall, fleet_resps =
    let workers = Array.init shards (fun _ -> fleet_worker_create ()) in
    let router =
      Router.create
        { Router.default_config with Router.shards }
        ~dispatch:(fleet_dispatch workers)
    in
    let r = pipeline (Router.handle_connection router) in
    Router.shutdown router;
    Array.iter fleet_worker_stop workers;
    r
  in
  if counts single_resps <> counts fleet_resps then begin
    Format.eprintf "bench: fleet counts diverge from the single server's@.";
    exit 2
  end;
  let rps w = float_of_int n /. w in
  let speedup = single_wall /. fleet_wall in
  let cores = Domain.recommended_domain_count () in
  Format.fprintf fmt "%d cache-miss count requests, %d shards, %d core(s)@." n
    shards cores;
  Format.fprintf fmt "  single    : %7.3fs  %8.1f req/s@." single_wall
    (rps single_wall);
  Format.fprintf fmt "  fleet     : %7.3fs  %8.1f req/s   speedup %.2fx@."
    fleet_wall (rps fleet_wall) speedup;
  if cores < 2 then
    Format.fprintf fmt
      "  (single-core host: shard parallelism cannot show a wall-clock win here)@.";
  serve_summary :=
    Some
      (Json.Obj
         [
           ("mode", Json.Str "fleet");
           ("requests", Json.Int n);
           ("shards", Json.Int shards);
           ("cores", Json.Int cores);
           ("cache_enabled", Json.Bool false);
           ( "single",
             Json.Obj
               [
                 ("wall_s", Json.Float single_wall);
                 ("throughput_rps", Json.Float (rps single_wall));
               ] );
           ( "fleet",
             Json.Obj
               [
                 ("wall_s", Json.Float fleet_wall);
                 ("throughput_rps", Json.Float (rps fleet_wall));
               ] );
           ("speedup", Json.Float speedup);
         ])

let run_ablations cfg =
  banner "Ablations";
  Report.symmetry_ablation fmt (Experiments.symmetry_ablation cfg)

(* ---------------------------------------------------------------------- *)

let () =
  let table = ref 0 in
  let serve_only = ref false in
  let fleet = ref false in
  let shards = ref 4 in
  let ablation_only = ref false in
  let tables_only = ref false in
  let budget = ref Experiments.fast.Experiments.budget in
  let seed = ref Experiments.fast.Experiments.seed in
  let json_path = ref "" in
  let jobs = ref 1 in
  let no_cache = ref false in
  let baseline_path = ref "" in
  let gate_factor = ref 0.0 in
  let args =
    [
      ("--table", Arg.Set_int table, "N  regenerate only table N");
      ( "--serve",
        Arg.Set serve_only,
        "  benchmark the counting service (mcml serve) against direct \
         execution: throughput and latency percentiles, closed-loop and \
         pipelined" );
      ( "--fleet",
        Arg.Set fleet,
        "  with --serve: pipeline cache-miss traffic through an in-process \
         fleet router (--shards domains) and compare against one server" );
      ( "--shards",
        Arg.Set_int shards,
        "N  shard count for --serve --fleet (default 4)" );
      ("--ablation", Arg.Set ablation_only, "  ablation studies only");
      ("--tables", Arg.Set tables_only, "  tables only, skip the ablation");
      ("--budget", Arg.Set_float budget, "S  per-count timeout in seconds");
      ("--seed", Arg.Set_int seed, "N  RNG seed");
      ( "--jobs",
        Arg.Set_int jobs,
        "N  worker domains for the experiment driver (default 1: sequential, \
         bit-identical tables at any setting)" );
      ( "--no-count-cache",
        Arg.Set no_cache,
        "  disable the content-addressed count cache (--serve --fleet always \
         runs with it off)" );
      ( "--json",
        Arg.Set_string json_path,
        "PATH  write a machine-readable summary (wall time and counters per section)" );
      ( "--baseline",
        Arg.Set_string baseline_path,
        "PATH  a previous --json summary (typically --jobs 1); adds per-section \
         speedup_vs_jobs1 fields to this run's --json output and anchors --gate" );
      ( "--gate",
        Arg.Set_float gate_factor,
        "F  regression gate: exit 1 if any section shared with --baseline ran \
         more than F times slower than it, in wall time or in the median of a \
         gated counter latency (sections under the 50ms — latencies under \
         the 20ms — noise floor in both runs are skipped; p99s are reported \
         but too noisy at section sample sizes to veto)" );
    ]
  in
  Arg.parse args (fun _ -> ()) "bench/main.exe [options]";
  if !gate_factor > 0.0 && !baseline_path = "" then begin
    Format.eprintf "bench: --gate needs --baseline@.";
    exit 2
  end;
  if !json_path <> "" then begin
    (* fail fast on an unwritable path rather than after the workload *)
    try close_out (open_out !json_path)
    with Sys_error msg ->
      Format.eprintf "bench: cannot write --json file: %s@." msg;
      exit 2
  end;
  if !json_path <> "" || !gate_factor > 0.0 then
    Mcml_obs.Obs.set_sink (Mcml_obs.Obs.stats_only ());
  let baseline = if !baseline_path = "" then [] else read_baseline !baseline_path in
  let pool =
    if !jobs > 1 then Some (Mcml_exec.Pool.create ~jobs:!jobs ()) else None
  in
  let cache =
    if !no_cache then None else Some (Mcml_counting.Counter.cache_create ())
  in
  let cfg =
    {
      Experiments.fast with
      Experiments.budget = !budget;
      seed = !seed;
      pool;
      cache;
    }
  in
  let t0 = Mcml_obs.Obs.monotonic_s () in
  if !serve_only && !fleet then
    timed "serve.fleet" (fun () ->
        run_fleet_serve ~shards:!shards ~budget:!budget ~seed:!seed)
  else if !serve_only then
    timed "serve" (fun () ->
        run_serve ~jobs:!jobs ~budget:!budget ~seed:!seed ~use_cache:(not !no_cache))
  else if !ablation_only then timed "ablations" (fun () -> run_ablations cfg)
  else if !table > 0 then
    timed
      (Printf.sprintf "table%d" !table)
      (fun () -> run_table cfg !table)
  else begin
    Format.fprintf fmt
      "MCML benchmark harness — regenerating the paper's Tables 1-9@.";
    Format.fprintf fmt
      "(scaled-down configuration: scopes %d-%d, threshold %d positives, budget %.0fs;@."
      cfg.Experiments.min_scope cfg.Experiments.max_scope cfg.Experiments.threshold
      cfg.Experiments.budget;
    Format.fprintf fmt
      " see EXPERIMENTS.md for the mapping to the paper's configuration)@.";
    List.iter
      (fun n -> timed (Printf.sprintf "table%d" n) (fun () -> run_table cfg n))
      [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ];
    if not !tables_only then timed "ablations" (fun () -> run_ablations cfg)
  end;
  let total = Mcml_obs.Obs.monotonic_s () -. t0 in
  Option.iter Mcml_exec.Pool.shutdown pool;
  Format.fprintf fmt "@.total wall-clock: %.1fs@." total;
  if !json_path <> "" then
    write_json !json_path ~seed:!seed ~budget:!budget ~jobs:!jobs ~cache
      ~baseline ~total;
  if !gate_factor > 0.0 then run_gate ~factor:!gate_factor ~baseline
