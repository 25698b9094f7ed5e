(* What a workload run reports: its checked operations, its end-to-end
   metrics, and the per-layer ledger every traced run fills in from the
   same sources (span self times and counters read back from a trace,
   plus values only the runner can see); and the helpers the workloads
   share. *)

module Trace = Mcml_obs.Trace

let now = Mcml_obs.Obs.monotonic_s

(* [f ()] and the seconds it took. *)
let timed f =
  let t = now () in
  let r = f () in
  (now () -. t, r)

(* Wall and processor (user + system) seconds of one operation. *)
type time = { wall : float; cpu : float }

(* [f ()] and its time.  Processor time is this process's, read with
   getrusage; unlike wall time it leaves out the time the process waited
   for a core. *)
let measured f =
  let w = now () and c = Sys.time () in
  let r = f () in
  ({ wall = now () -. w; cpu = Sys.time () -. c }, r)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Mcml_logic.Splitmix.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

type result = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** names as in BENCHMARK.json *)
}

(* From one problem list per operation, as the oracles return them. *)
let result_of problems metrics =
  List.iter (List.iter prerr_endline) problems;
  { attempted = List.length problems; failed = List.length (List.filter (( <> ) []) problems); metrics }

(* Problems about a whole group of operations ride on its first one. *)
let on_first problems group = List.mapi (fun i ps -> if i = 0 then ps @ group else ps) problems

let e2e ~setup_s ~cpu_s ~op_cpu_ms ~max_rss_mb =
  [ ("setup_s", setup_s); ("cpu_s", cpu_s); ("op_cpu_ms", op_cpu_ms); ("max_rss_mb", max_rss_mb) ]

(* A run whose numbers would not measure the program: the load
   generator fell behind, or the trace does not account for the time. *)
exception Invalid_run of string

(* Linear interpolation between closest ranks; 0 for no samples. *)
let percentile xs p =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let pos = p *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      if i + 1 >= Array.length a then a.(i)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = percentile xs 0.5
let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* The least of the processor times of repetitions of one piece of work.
   The host lends its cores to other tenants, and each core of the
   benchmark's has slow spells of a few seconds of its own: at one
   moment a fixed kernel took 5.6 ms on one core and 1.8 ms on the
   other, and a fixed table pass took 12.9 to 17.6 processor seconds
   over ten runs of one afternoon.  The program gets less done per
   processor second in a spell, so its processor time moves with the
   neighbours as much as its wall time does; the spells only ever slow
   it, so the least of its repetitions is the time it takes when no
   spell hits it. *)
let best = List.fold_left Float.min infinity

type sources = {
  self : (string * (int * float)) list;  (** span name -> (calls, self ms) *)
  counters : (string * float) list;
  extra : (string * float) list;  (** runner-side values, by metric name *)
}

(* Self times and counters of a trace.  A trace merged from a
   [--trace-dir] qualifies span names by process ([pid42/count.exact]);
   the ledger sums a layer over every process it ran in. *)
let sources_of_trace (t : Trace.t) ~extra =
  let self = Hashtbl.create 64 in
  List.iter
    (fun (name, calls, ms) ->
      let name =
        match String.index_opt name '/' with
        | Some i -> String.sub name (i + 1) (String.length name - i - 1)
        | None -> name
      in
      let c, m = Option.value (Hashtbl.find_opt self name) ~default:(0, 0.0) in
      Hashtbl.replace self name (c + calls, m +. ms))
    (Trace.self_times t);
  { self = List.of_seq (Hashtbl.to_seq self); counters = t.Trace.counters; extra }

let layer_metrics src =
  let self_ms span =
    (span ^ ".self_ms", match List.assoc_opt span src.self with Some (_, ms) -> ms | None -> 0.0)
  in
  let calls span =
    (span ^ ".calls", match List.assoc_opt span src.self with Some (c, _) -> float_of_int c | None -> 0.0)
  in
  let value name = Option.value (List.assoc_opt name src.counters) ~default:0.0 in
  let counter name = (name, value name) in
  let ratio name ~hits ~misses =
    let h = value hits and m = value misses in
    (name, if h +. m > 0.0 then h /. (h +. m) else 0.0)
  in
  let extra name = (name, Option.value (List.assoc_opt name src.extra) ~default:0.0) in
  List.init 9 (fun i -> extra (Printf.sprintf "experiments.table%d_ms" (i + 1)))
  @ [
      self_ms "props.select_scope";
      calls "props.select_scope";
      self_ms "pipeline.generate";
      self_ms "alloy.enumerate";
      self_ms "tseitin.encode";
      counter "tseitin.clauses";
      self_ms "sat.enumerate";
      counter "enumerate.models";
      self_ms "solver.solve";
      counter "solver.conflicts";
      self_ms "sat.inprocess";
      self_ms "count.exact";
      counter "count.exact.calls";
      counter "count.exact.dnnf_nodes";
      ratio "count.exact.comp_cache_hit_ratio" ~hits:"count.exact.comp_cache_hits"
        ~misses:"count.exact.comp_cache_misses";
      self_ms "count.approx";
      counter "count.approx.sat_queries";
      self_ms "ml.train";
      counter "ml.trains";
      self_ms "accmc.counts";
      extra "accmc.query_sym.p50_ms";
      extra "accmc.query_full.p50_ms";
      self_ms "diffmc.counts";
      ratio "exec.count_cache.hit_ratio" ~hits:"exec.count_cache.hits"
        ~misses:"exec.count_cache.misses";
      extra "exec.pool.queue_wait.p50_ms";
      extra "exec.pool.queue_wait.p99_ms";
      extra "serve.request.p50_ms";
      extra "serve.request.p99_ms";
      counter "serve.slo.deadline_miss";
      extra "protocol.encode.p50_us";
      extra "protocol.decode.p50_us";
      extra "latency.p50_ms";
      extra "latency.p95_ms";
      extra "client.deadline.p50_ms";
      extra "client.batch.p50_ms";
      extra "loadgen.lag.p99_ms";
      extra "loadgen.outstanding.max";
      extra "runtime.alloc_mb";
      extra "runtime.gc.major_collections";
      extra "trace.unattributed_ms";
      extra "trace.overhead_frac";
    ]
