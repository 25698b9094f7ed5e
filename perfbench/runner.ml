(* The MCML benchmark's workload runner.

     runner.exe --workload tables|accmc|serve --seed N
                [--seconds S] [--trace 0|1]

   Run it through perfbench/run.sh from the repository root, which
   builds it and the mcml binary first.  With --trace 0 it prints every
   end-to-end metric named in BENCHMARK.json, with --trace 1 every
   per-layer metric, one "name value unit" line each, then the result
   as one JSON line.  README.md describes the workloads and metrics. *)

open Mcml
module Obs = Mcml_obs.Obs
module Json = Mcml_obs.Json
module Trace = Mcml_obs.Trace
module Props = Mcml_props.Props
module Counter = Mcml_counting.Counter
module Model = Mcml_ml.Model
module Dataset = Mcml_ml.Dataset
module Decision_tree = Mcml_ml.Decision_tree
module Splitmix = Mcml_logic.Splitmix

(* The fixed work of a pass, repeated as often as passes of its usual
   length [pass_s] fit in [seconds]; at least twice, so that every
   operation has a repetition to take the least of (Ledger.best).  The
   count must not depend on how fast this run is going. *)
let passes ~seconds ~pass_s pass = List.init (max 2 (seconds / pass_s)) (fun _ -> pass ())

(* [fs] in order, each timed, with a probe of the reference kernel
   before every [every] of them and after the last. *)
let probed ~every fs =
  let n = List.length fs in
  List.mapi
    (fun i f ->
      if i mod every = 0 then Calib.probe ();
      let r = Ledger.measured f in
      if i = n - 1 then Calib.probe ();
      r)
    fs

let cpu (t : Ledger.time) = t.Ledger.cpu
let wall (t : Ledger.time) = t.Ledger.wall
let wall_ms t = wall t *. 1000.0
let total f ops = List.fold_left (fun acc o -> acc +. f o) 0.0 ops

(* The end-to-end metrics of passes over the same operations, after
   set-ups: each operation counts with its least processor time, in
   reference seconds, and [typical] picks the typical one. *)
let e2e ~setup ~typical passes =
  let ps = List.map Array.of_list passes in
  let best =
    List.init (Array.length (List.hd ps)) (fun i ->
        Calib.to_ref (Ledger.best (List.map (fun p -> cpu p.(i)) ps)))
  in
  Ledger.e2e
    ~setup_s:(Calib.to_ref (Ledger.median (List.map cpu setup)))
    ~cpu_s:(total Fun.id best)
    ~op_cpu_ms:(1000.0 *. typical best)
    ~max_rss_mb:((Mcml_obs.Probe.rusage ()).Mcml_obs.Probe.max_rss_bytes /. 1e6)

(* The wall-clock latencies of an untraced pass, for the ledger. *)
let latencies ops =
  let ms = List.map wall_ms ops in
  [ ("latency.p50_ms", Ledger.median ms); ("latency.p95_ms", Ledger.percentile ms 0.95) ]

(* --- traced runs ----------------------------------------------------------- *)

(* [f] under an in-memory sink: its result and the trace it left. *)
let traced_run f =
  let events = ref [] in
  Obs.reset_counters ();
  Obs.set_sink { Obs.emit = (fun e -> events := e :: !events); flush = ignore };
  let r =
    Fun.protect
      ~finally:(fun () ->
        Obs.flush ();
        Obs.set_sink Obs.null)
      f
  in
  match Trace.of_events (List.rev !events) with
  | Ok t -> (r, t)
  | Error errs -> raise (Ledger.Invalid_run ("trace: " ^ String.concat "; " errs))

let gc_words g = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words

(* [f]'s allocation and major collections, as ledger entries. *)
let with_gc f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  ( r,
    [
      ("runtime.alloc_mb", (gc_words g1 -. gc_words g0) *. float_of_int (Sys.word_size / 8) /. 1e6);
      ( "runtime.gc.major_collections",
        float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) );
    ] )

(* The ledger of an in-process workload: self times and counters from
   the traced pass, which must account for its own wall time. *)
let in_process_ledger ~untraced_wall ~traced_wall trace ~extra =
  let self_ms = List.fold_left (fun acc (_, _, ms) -> acc +. ms) 0.0 (Trace.self_times trace) in
  let unattributed = (traced_wall *. 1000.0) -. self_ms in
  if unattributed > 0.05 *. traced_wall *. 1000.0 then
    raise
      (Ledger.Invalid_run
         (Printf.sprintf "trace leaves %.0f of %.0f ms unattributed" unattributed
            (traced_wall *. 1000.0)));
  Ledger.layer_metrics
    (Ledger.sources_of_trace trace
       ~extra:
         (extra
         @ [
             ("trace.unattributed_ms", unattributed);
             ("trace.overhead_frac", (traced_wall /. untraced_wall) -. 1.0);
           ]))

let untraced f = f ()
let in_span name f = Obs.with_span name f

(* --- tables ------------------------------------------------------------------ *)

let epsilon = Experiments.fast.Experiments.approx_config.Mcml_counting.Approx.epsilon

(* One call per table, with bench --tables' arguments; returns
   the check of its rows, run once timing is over. *)
let table cfg n =
  let rows check rows () = List.map check rows in
  let dt ~data_symmetry ~eval_symmetry =
    rows (Oracle.check_dt ~eval_symmetry)
      (Experiments.dt_generalization cfg ~data_symmetry ~eval_symmetry)
  in
  match n with
  | 1 -> rows (Oracle.check_table1 ~epsilon) (Experiments.table1 cfg)
  | 2 | 4 ->
      let r =
        Experiments.model_performance cfg ~prop:(Props.find_exn "PartialOrder") ~symmetry:(n = 2)
      in
      fun () -> Ledger.on_first (List.map (fun _ -> []) r) (Oracle.check_performance r)
  | 3 -> dt ~data_symmetry:true ~eval_symmetry:true
  | 5 -> dt ~data_symmetry:false ~eval_symmetry:false
  | 6 -> dt ~data_symmetry:true ~eval_symmetry:false
  | 7 -> dt ~data_symmetry:false ~eval_symmetry:true
  | 8 -> rows Oracle.check_diff (Experiments.tree_differences cfg)
  | _ ->
      rows Oracle.check_class_ratio
        (Experiments.class_ratio_study cfg ~prop:(Props.find_exn "Antisymmetric"))

(* A fresh mcml process started and gone: [mcml list] runs the program's
   start-up (exec, the runtime and every module's initialisation) and
   next to nothing else.  Its processor time comes from getrusage of
   reaped children. *)
let start_up ~exe () =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close devnull) @@ fun () ->
  let children () =
    let t = Unix.times () in
    t.Unix.tms_cutime +. t.Unix.tms_cstime
  in
  let c = children () and w = Ledger.now () in
  let pid = Unix.create_process exe [| exe; "list" |] Unix.stdin devnull Unix.stderr in
  let rec reap () =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> raise (Ledger.Invalid_run "mcml list failed")
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
  in
  reap ();
  { Ledger.wall = Ledger.now () -. w; cpu = children () -. c }

(* The set-up of the tables is what a researcher's fresh process pays
   before its first table: the program's start-up, 11 times.  (Parsing
   the spec and allocating the count cache, in process, took 0.1 ms and
   its median moved by half from one process to the next.) *)
let tables ~exe ~seed ~seconds ~traced =
  let setup =
    Calib.probe ();
    let s = List.init 11 (fun _ -> start_up ~exe ()) in
    Calib.probe ();
    s
  in
  let pass span =
    let cfg = { Experiments.fast with Experiments.seed; cache = Some (Counter.cache_create ()) } in
    List.split (probed ~every:1 (List.init 9 (fun i () -> span (fun () -> table cfg (i + 1)))))
  in
  let checks ps = List.concat_map (fun (_, cs) -> List.concat_map (fun c -> c ()) cs) ps in
  if not traced then
    let ps = passes ~seconds ~pass_s:13 (fun () -> pass untraced) in
    Ledger.result_of (checks ps) (e2e ~setup ~typical:Ledger.mean (List.map fst ps))
  else
    let ((u, _) as untraced_pass), gc = with_gc (fun () -> pass untraced) in
    let ((t, _) as traced_pass), trace = traced_run (fun () -> pass (in_span "bench.table")) in
    Ledger.result_of
      (checks [ untraced_pass; traced_pass ])
      (in_process_ledger ~untraced_wall:(total wall u) ~traced_wall:(total wall t) trace
         ~extra:
           (latencies u @ gc
           @ List.mapi (fun i op -> (Printf.sprintf "experiments.table%d_ms" (i + 1), wall_ms op)) t))

(* --- accmc ------------------------------------------------------------------- *)

type query = { prop : Props.t; scope : int; eval_symmetry : bool; tree : Decision_tree.t }

(* Data for every property with and without symmetry breaking, eight
   trees per dataset on their own 10% splits, and each tree queried
   over both universes, in a seeded order.  Eight trees share each
   ground truth, so work done once per ground truth shows here. *)
let accmc_queries seed =
  let cfg = Experiments.fast in
  let trees =
    List.concat
      (List.mapi
         (fun k (prop, symmetry) ->
           let scope = Experiments.scope_for cfg prop ~symmetry in
           let data =
             Pipeline.generate prop
               { Pipeline.scope; symmetry; max_positives = cfg.Experiments.max_positives; seed = seed + k }
           in
           List.init 8 (fun j ->
               let rng = Splitmix.create (seed + (1000 * k) + j) in
               let train, _ =
                 Dataset.split rng ~train_fraction:cfg.Experiments.dt_train_fraction
                   data.Pipeline.dataset
               in
               let model = Model.train ~sizes:cfg.Experiments.sizes ~seed:(seed + j) Model.DT train in
               (prop, scope, Option.get model.Model.tree)))
         (List.concat_map (fun p -> [ (p, true); (p, false) ]) Props.all))
  in
  let qs =
    Array.of_list
      (List.concat_map
         (fun (prop, scope, tree) ->
           List.map (fun eval_symmetry -> { prop; scope; eval_symmetry; tree }) [ true; false ])
         trees)
  in
  Ledger.shuffle (Splitmix.create seed) qs;
  Array.to_list qs

let accmc_check (answers : (query * Accmc.counts option) list) =
  let per_query =
    List.map
      (fun (q, c) ->
        match c with
        | None -> [ Printf.sprintf "accmc %s scope %d: timed out" q.prop.Props.name q.scope ]
        | Some c -> Oracle.check_accmc q.prop ~scope:q.scope ~eval_symmetry:q.eval_symmetry q.tree c)
      answers
  in
  let groups =
    Oracle.check_accmc_groups
      (List.filter_map
         (fun (q, c) -> Option.map (fun c -> ((q.prop.Props.name, q.scope, q.eval_symmetry), c)) c)
         answers)
  in
  Ledger.on_first per_query groups

let accmc ~seed ~seconds ~traced =
  let setup_runs = probed ~every:1 (List.init 3 (fun _ () -> accmc_queries seed)) in
  let qs = snd (List.hd setup_runs) in
  let pass span =
    let ops, answers =
      List.split
        (probed ~every:16
           (List.map
              (fun q () ->
                span (fun () ->
                    Pipeline.accmc ~budget:60.0 ~backend:Counter.Exact ~prop:q.prop ~scope:q.scope
                      ~eval_symmetry:q.eval_symmetry q.tree))
              qs))
    in
    (ops, List.combine qs answers)
  in
  let checks ps = List.concat_map (fun (_, a) -> accmc_check a) ps in
  if not traced then
    let ps = passes ~seconds ~pass_s:10 (fun () -> pass untraced) in
    Ledger.result_of (checks ps) (e2e ~setup:(List.map fst setup_runs) ~typical:Ledger.median (List.map fst ps))
  else
    let ((u, _) as untraced_pass), gc = with_gc (fun () -> pass untraced) in
    let ((t, _) as traced_pass), trace = traced_run (fun () -> pass (in_span "bench.query")) in
    let p50 sym =
      Ledger.median
        (List.filter_map
           (fun (q, op) -> if q.eval_symmetry = sym then Some (wall_ms op) else None)
           (List.combine qs u))
    in
    Ledger.result_of
      (checks [ untraced_pass; traced_pass ])
      (in_process_ledger ~untraced_wall:(total wall u) ~traced_wall:(total wall t) trace
         ~extra:
           (latencies u @ gc
           @ [ ("accmc.query_sym.p50_ms", p50 true); ("accmc.query_full.p50_ms", p50 false) ]))

(* --- the command line and the contract with BENCHMARK.json ---------------- *)

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 2)
    fmt

let read_spec path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> fail "cannot read %s" msg
  | text -> (
      match Json.of_string text with
      | Ok doc -> doc
      | Error msg -> fail "%s is not JSON: %s" path msg)

(* (name, unit) of every entry of one list of BENCHMARK.json. *)
let names doc section =
  match Json.member section doc with
  | Some (Json.List entries) ->
      List.map
        (fun e ->
          match (Json.member "name" e, Json.member "unit" e) with
          | Some (Json.Str n), Some (Json.Str u) -> (n, u)
          | Some (Json.Str n), None -> (n, "")
          | _ -> fail "BENCHMARK.json: an entry of %S has no name" section)
        entries
  | _ -> fail "BENCHMARK.json has no %S list" section

let () =
  let workload = ref "" and seed = ref None and seconds = ref 25 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  a workload named in BENCHMARK.json");
      ("--seed", Arg.Int (fun s -> seed := Some s), "N  seed of the generated inputs (required)");
      ("--seconds", Arg.Set_int seconds, "S  measurement length (default 25)");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end metrics (0) or the per-layer ledger (1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "runner.exe --workload NAME --seed N [--seconds S] [--trace 0|1]";
  let doc = read_spec "BENCHMARK.json" in
  let workloads = List.map fst (names doc "workloads") in
  if not (List.mem !workload workloads) then
    fail "unknown workload %S (BENCHMARK.json names %s)" !workload (String.concat ", " workloads);
  let seed = match !seed with Some s -> s | None -> fail "--seed is required" in
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  if !seconds < 1 then fail "--seconds must be at least 1";
  let exe =
    Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin/main.exe"
  in
  if not (Sys.file_exists exe) then fail "the mcml binary is missing: %s" exe;
  let traced = !trace = 1 and seconds = !seconds in
  let r =
    try
      match !workload with
      | "tables" -> tables ~exe ~seed ~seconds ~traced
      | "accmc" -> accmc ~seed ~seconds ~traced
      | "serve" -> Loadgen.run ~exe ~seed ~seconds ~traced
      | w -> fail "no runner for workload %S" w
    with Ledger.Invalid_run msg ->
      prerr_endline ("perfbench: invalid run: " ^ msg);
      exit 1
  in
  Printf.eprintf "perfbench: reference kernel %.4f ms, the median of %d probes\n"
    (1000.0 *. Calib.median_s ()) (List.length !Calib.probes);
  let expected = names doc (if traced then "per_layer" else "end_to_end") in
  let sorted l = List.sort compare (List.map fst l) in
  if sorted r.Ledger.metrics <> sorted expected then
    fail "metric names differ from BENCHMARK.json: runner has %s"
      (String.concat ", " (sorted r.Ledger.metrics));
  List.iter
    (fun (name, unit) -> Printf.printf "%s %.17g %s\n" name (List.assoc name r.Ledger.metrics) unit)
    expected;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (r.Ledger.failed = 0));
            ("attempted", Json.Int r.Ledger.attempted);
            ("failed", Json.Int r.Ledger.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, unit) ->
                     ( name,
                       Json.Obj
                         [ ("value", Json.Float (List.assoc name r.Ledger.metrics)); ("unit", Json.Str unit) ] ))
                   expected) );
          ]))
