(* Benchmark harness: the regression gate over the paper's Tables 1-9
   (the scaled-down "fast" configuration), the symmetry-breaking
   ablation and the in-process fleet benchmark.  `mcml exp N` prints
   any one table; perfbench (BENCHMARK.json) measures the served path.

   Usage:
     dune exec bench/main.exe                   # tables + ablation
     dune exec bench/main.exe -- --tables --json out.json \
       --baseline BENCH_baseline.json --gate 2.0
     dune exec bench/main.exe -- --serve --fleet --shards 4 --budget 5 *)

open Mcml
open Mcml_props

let fmt = Format.std_formatter

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
(* Timed sections and the regression gate                                  *)
(* ---------------------------------------------------------------------- *)

(* Latency histograms the regression gate compares alongside section
   walls: a counter rewrite can regress its per-call latency (what its
   acceptance criteria are stated in) while hiding inside a section's
   wall-clock noise, so the two counting distributions are first-class
   gate subjects, and so is the exact AccMC query (compile once,
   condition on the tree's paths), which no longer makes count
   queries.  So are positive enumeration and the dataset generation
   around it, which every table pays for.  The gated statistic is the
   *median*: with ~32-100 calls per section the p99 is the single
   slowest sample, and one scheduler or major-GC hiccup moves it 5-6x
   run-to-run on a shared host (observed on sections whose code hadn't
   changed at all), while the median is stable within ~1.3x yet still
   moves by the full rewrite factor when an optimization is reverted.
   The p99 ratio is printed alongside for the record, unvetoed. *)
let gated_latency_keys =
  [
    "counter.count.approx_ms";
    "counter.count.exact_ms";
    "accmc.counts";
    "sat.enumerate";
    "pipeline.generate";
  ]

(* Each timed section records its wall time and the distribution of
   every gated latency key across it (histogram snapshots diffed
   around the section; they accumulate because the cheap [stats_only]
   sink is installed). *)
type section = {
  sec_name : string;
  sec_wall : float;
  sec_latency : (string * Mcml_obs.Obs.hist_stats) list;
}

let sections : section list ref = ref []

(* The fleet summary of --serve --fleet, under the "serve" key. *)
let serve_summary : Mcml_obs.Json.t option ref = ref None

let timed name f =
  let open Mcml_obs in
  let h0 = Obs.histogram_copies () in
  let t0 = Obs.monotonic_s () in
  f ();
  let wall = Obs.monotonic_s () -. t0 in
  let latency =
    List.filter_map
      (fun (k, h) ->
        if not (List.mem k gated_latency_keys) then None
        else
          let d =
            match List.assoc_opt k h0 with
            | Some prev -> Obs.Histogram.diff h prev
            | None -> h
          in
          Option.map (fun s -> (k, s)) (Obs.Histogram.stats d))
      (Obs.histogram_copies ())
  in
  sections := { sec_name = name; sec_wall = wall; sec_latency = latency } :: !sections

(* Per-section wall times and gated latencies ([count], p50, p99) out
   of a previous --json summary.  Any unusable baseline — unreadable,
   unparsable, or without a single (name, wall_s) section — is a hard
   exit 2, never a silent "as if no baseline was given": the CI gate
   must not pass vacuously. *)
let read_baseline path =
  let open Mcml_obs in
  let fail fmt =
    Format.kasprintf
      (fun msg ->
        Format.eprintf "bench: --baseline %s %s@." path msg;
        exit 2)
      fmt
  in
  let text =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error msg -> fail "cannot be read: %s" msg
  in
  let doc =
    match Json.of_string text with Ok d -> d | Error msg -> fail "cannot be parsed: %s" msg
  in
  let expected = "mcml.bench.v3" in
  (match Json.member "schema" doc with
  | Some (Json.Str s) when s = expected -> ()
  | Some (Json.Str s) ->
      fail "has schema %S, not %S: regenerate it with bench --json" s expected
  | _ -> fail "has no \"schema\" field (expected %S): regenerate it with bench --json" expected);
  let num j name = Option.bind (Json.member name j) Json.to_float_opt in
  let latency s key =
    Option.bind (Json.member "latency" s) (fun l ->
        Option.bind (Json.member key l) (fun h ->
            match (num h "count", num h "p50_ms", num h "p99_ms") with
            | Some n, Some p50, Some p99 -> Some (key, (int_of_float n, p50, p99))
            | _ -> None))
  in
  let section s =
    match (Json.member "name" s, num s "wall_s") with
    | Some (Json.Str name), Some wall ->
        Some (name, (wall, List.filter_map (latency s) gated_latency_keys))
    | _ -> None
  in
  match Json.member "sections" doc with
  | Some (Json.List secs) -> (
      match List.filter_map section secs with
      | [] -> fail "has no usable sections"
      | base -> base)
  | _ -> fail "has no sections"

(* The regression gate: every section that appears in both runs must
   not have slowed down by more than [factor] — its wall time, and the
   median of every gated latency key both runs recorded (how a counter
   rewrite's win is held across later PRs even when the section wall
   absorbs it).  Sections (and latencies) below a small absolute floor
   in both runs are skipped — at that scale the ratio measures
   scheduler noise, not the code.  A median over fewer than
   [gate_min_samples] calls in either run is printed but never vetoes:
   a single dataset generation is as noisy as a p99.  Exit 1 on
   violation so bin/check.sh can gate on it. *)
let gate_floor_s = 0.05
let gate_floor_ms = 20.0
let gate_min_samples = 5

let run_gate ~factor ~baseline =
  let violations = ref 0 and compared = ref 0 in
  let verdict ratio = if ratio > factor then (incr violations; "FAIL") else "ok" in
  Format.fprintf fmt "@.=== regression gate (fail on >%.2fx slowdown) ===@." factor;
  List.iter
    (fun { sec_name; sec_wall; sec_latency } ->
      match List.assoc_opt sec_name baseline with
      | None -> ()
      | Some (base, _) when base < gate_floor_s && sec_wall < gate_floor_s ->
          Format.fprintf fmt "  %-12s %8.3fs vs %8.3fs  (below noise floor, skipped)@."
            sec_name sec_wall base
      | Some (base, base_lat) ->
          incr compared;
          let ratio = if base > 0.0 then sec_wall /. base else Float.infinity in
          Format.fprintf fmt "  %-12s %8.3fs vs %8.3fs  %5.2fx  %s@." sec_name sec_wall
            base ratio (verdict ratio);
          List.iter
            (fun (key, (base_n, base_p50, base_p99)) ->
              match List.assoc_opt key sec_latency with
              | None -> ()
              | Some (st : Mcml_obs.Obs.hist_stats) ->
                  let p50 = st.Mcml_obs.Obs.p50 and p99 = st.Mcml_obs.Obs.p99 in
                  let n = st.Mcml_obs.Obs.count in
                  let ratio = if base_p50 > 0.0 then p50 /. base_p50 else Float.infinity in
                  let line = Format.fprintf fmt "    %s p50 %7.1fms vs %7.1fms  %5.2fx  " in
                  if base_p50 < gate_floor_ms && p50 < gate_floor_ms then ()
                  else if n < gate_min_samples || base_n < gate_min_samples then begin
                    line key p50 base_p50 ratio;
                    Format.fprintf fmt "(%d vs %d samples, unvetoed)@." n base_n
                  end
                  else begin
                    incr compared;
                    line key p50 base_p50 ratio;
                    Format.fprintf fmt "%s  (p99 %.1fms vs %.1fms, unvetoed)@."
                      (verdict ratio) p99 base_p99
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

let write_json path =
  let open Mcml_obs in
  let hist_json (s : Obs.hist_stats) =
    Json.Obj
      [
        ("count", Json.Int s.Obs.count);
        ("p50_ms", Json.Float s.Obs.p50);
        ("p99_ms", Json.Float s.Obs.p99);
      ]
  in
  let section { sec_name; sec_wall; sec_latency } =
    Json.Obj
      [
        ("name", Json.Str sec_name);
        ("wall_s", Json.Float sec_wall);
        ("latency", Json.Obj (List.map (fun (k, s) -> (k, hist_json s)) sec_latency));
      ]
  in
  let doc =
    Json.Obj
      ([
         ("schema", Json.Str "mcml.bench.v3");
         ("sections", Json.List (List.rev_map section !sections));
       ]
      @ match !serve_summary with None -> [] | Some s -> [ ("serve", s) ])
  in
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Format.fprintf fmt "wrote %s@." path

(* ---------------------------------------------------------------------- *)
(* Fleet-mode serve benchmark (--serve --fleet)                            *)
(* ---------------------------------------------------------------------- *)

(* 40 exact counts: five properties at scopes 3 and 4, four rounds.
   Each budget is perturbed by 1e-9 * id: the budget is part of the
   fleet router's single-flight key (printed %h, so any float
   difference separates keys), so no two requests are merged by its
   single-flight.  The ring key has no budget, so the four rounds of a
   query reach one shard.  The count cache does not key by budget, so
   every server here runs with it off, to keep every request really
   counting. *)
let fleet_requests ~budget =
  let props =
    List.map Props.find_exn
      [ "Reflexive"; "Irreflexive"; "Antisymmetric"; "Transitive"; "PartialOrder" ]
  in
  List.concat_map
    (fun round ->
      List.concat_map
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
                      budget = budget +. (1e-9 *. float_of_int id);
                      seed = Experiments.fast.Experiments.seed;
                    };
              })
            props)
        [ 3; 4 ])
    [ 0; 1; 2; 3 ]

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

let run_fleet_serve ~shards ~budget =
  banner
    (Printf.sprintf "serve fleet mode: %d-shard router vs one server, cache-miss traffic"
       shards);
  let open Mcml_obs in
  let open Mcml_serve in
  let module Router = Mcml_fleet.Router in
  let now = Obs.monotonic_s in
  let reqs = fleet_requests ~budget in
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
  let run w =
    Json.Obj [ ("wall_s", Json.Float w); ("throughput_rps", Json.Float (rps w)) ]
  in
  serve_summary :=
    Some
      (Json.Obj
         [
           ("mode", Json.Str "fleet");
           ("requests", Json.Int n);
           ("shards", Json.Int shards);
           ("cores", Json.Int cores);
           ("single", run single_wall);
           ("fleet", run fleet_wall);
           ("speedup", Json.Float speedup);
         ])

(* ---------------------------------------------------------------------- *)

let () =
  let serve = ref false in
  let fleet = ref false in
  let shards = ref 4 in
  let ablation_only = ref false in
  let tables_only = ref false in
  let budget = ref Experiments.fast.Experiments.budget in
  let json_path = ref "" in
  let baseline_path = ref "" in
  let gate_factor = ref 0.0 in
  let args =
    [
      ("--tables", Arg.Set tables_only, "  Tables 1-9 only, skip the ablation");
      ("--ablation", Arg.Set ablation_only, "  the symmetry-breaking ablation only");
      ( "--serve",
        Arg.Set serve,
        "  with --fleet: the fleet benchmark (perfbench's serve workload measures \
         a single server)" );
      ( "--fleet",
        Arg.Set fleet,
        "  with --serve: pipeline cache-miss traffic through an in-process fleet \
         router (--shards domains) and compare against one server" );
      ("--shards", Arg.Set_int shards, "N  shard count for --serve --fleet (default 4)");
      ("--budget", Arg.Set_float budget, "S  per-count timeout in seconds");
      ( "--json",
        Arg.Set_string json_path,
        "PATH  write each section's wall time and gated latencies (and the fleet \
         summary) as JSON" );
      ( "--baseline",
        Arg.Set_string baseline_path,
        "PATH  a previous --json summary for --gate to compare against" );
      ( "--gate",
        Arg.Set_float gate_factor,
        "F  regression gate: exit 1 if any section shared with --baseline ran \
         more than F times slower than it, in wall time or in the median of a \
         gated latency (sections under the 50ms — latencies under the 20ms — \
         noise floor in both runs are skipped; a median over fewer than 5 \
         calls, and every p99, is reported but does not veto)" );
    ]
  in
  let usage = "bench/main.exe [options]" in
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let usage_error msg =
    Format.eprintf "bench: %s@." msg;
    exit 2
  in
  if !serve <> !fleet then usage_error "--serve and --fleet go together";
  if (!gate_factor > 0.0) <> (!baseline_path <> "") then
    usage_error "--gate and --baseline go together";
  (* fail fast on an unwritable path rather than after the workload *)
  (if !json_path <> "" then
     try close_out (open_out !json_path)
     with Sys_error msg -> usage_error ("cannot write --json file: " ^ msg));
  if !json_path <> "" || !gate_factor > 0.0 then
    Mcml_obs.Obs.set_sink (Mcml_obs.Obs.stats_only ());
  let baseline = if !baseline_path = "" then [] else read_baseline !baseline_path in
  let cfg =
    {
      Experiments.fast with
      Experiments.budget = !budget;
      cache = Some (Mcml_counting.Counter.cache_create ());
    }
  in
  let ablation () =
    timed "ablations" (fun () ->
        banner "Ablations";
        Report.symmetry_ablation fmt (Experiments.symmetry_ablation cfg))
  in
  let t0 = Mcml_obs.Obs.monotonic_s () in
  if !serve then
    timed "serve.fleet" (fun () -> run_fleet_serve ~shards:!shards ~budget:!budget)
  else if !ablation_only then ablation ()
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
    if not !tables_only then ablation ()
  end;
  Format.fprintf fmt "@.total wall-clock: %.1fs@." (Mcml_obs.Obs.monotonic_s () -. t0);
  if !json_path <> "" then write_json !json_path;
  if !gate_factor > 0.0 then run_gate ~factor:!gate_factor ~baseline
