(* mcml — command-line front end for the MCML reproduction.

   Subcommands mirror the workflow of the paper: inspect the subject
   properties, enumerate/count their solutions, export DIMACS, train and
   evaluate models (traditional and MCML metrics), quantify differences
   between trees, and regenerate the paper's tables. *)

open Cmdliner
open Mcml
open Mcml_logic
open Mcml_props

(* --- shared argument definitions ---------------------------------------- *)

let prop_converter =
  Arg.conv
    ( (fun s ->
        match Props.find s with
        | Some p -> Ok p
        | None ->
            Error (`Msg (Printf.sprintf "unknown property %S; try 'mcml list'" s))),
      fun fmt p -> Format.pp_print_string fmt p.Props.name )

let prop_info =
  Arg.info [ "p"; "property" ] ~docv:"PROP" ~doc:"Relational property (see 'mcml list')."

let prop_arg = Arg.(required & opt (some prop_converter) None & prop_info)

(* [stats --from-trace] needs no property, so the stats subcommand
   takes an optional one and checks it itself *)
let prop_opt_arg = Arg.(value & opt (some prop_converter) None & prop_info)

let scope_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "s"; "scope" ] ~docv:"N"
        ~doc:"Exact scope (number of atoms). Default: the paper's selection rule.")

let symmetry_arg =
  Arg.(value & flag & info [ "symmetry" ] ~doc:"Apply partial symmetry breaking.")

let seed_arg =
  Arg.(value & opt int 20200615 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")

let budget_arg =
  Arg.(
    value
    & opt float 60.0
    & info [ "budget" ] ~docv:"SECONDS" ~doc:"Per-count timeout (the paper used 5000).")

let backend_arg =
  let parse s =
    match String.lowercase_ascii s with
    | "exact" | "projmc" | "ddnnf" -> Ok Mcml_counting.Counter.Exact
    | "approx" | "approxmc" -> Ok (Mcml_counting.Counter.Approx Mcml_counting.Approx.default)
    | "brute" -> Ok Mcml_counting.Counter.Brute
    | _ -> Error (`Msg "backend must be exact | approx | brute")
  in
  let print fmt b = Format.pp_print_string fmt (Mcml_counting.Counter.name b) in
  Arg.(
    value
    & opt (conv (parse, print)) Mcml_counting.Counter.Exact
    & info [ "backend" ] ~docv:"B" ~doc:"Model counter: exact (decision-DNNF compilation), approx (ApproxMC-style), brute.")

let default_scope prop ~symmetry =
  Experiments.scope_for Experiments.fast prop ~symmetry

(* The dataset of train-eval, diff and stats: one the property cannot
   balance at the scope is bad input, reported on one line. *)
let generate prop cfg =
  try Pipeline.generate prop cfg
  with Pipeline.Unbalanceable msg ->
    Printf.eprintf "mcml: %s\n" msg;
    exit 2

(* --- telemetry flags (shared by every subcommand) ------------------------ *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a JSONL telemetry trace (spans and counters, one JSON object \
           per line) to $(docv).")

let verbose_stats_arg =
  Arg.(
    value
    & flag
    & info [ "verbose-stats" ]
        ~doc:
          "After the command finishes, print to stdout the report \
           'mcml stats --from-trace' prints for its trace: the aggregated \
           span forest, latency and counter tables.")

let trace_sink ~who path =
  try Mcml_obs.Obs.jsonl path
  with Sys_error msg ->
    Printf.eprintf "%s: cannot open trace file: %s\n" who msg;
    exit 2

(* Tee [sink] onto whatever sink is installed, and flush at exit. *)
let add_sink sink =
  let open Mcml_obs in
  Obs.set_sink (if Obs.enabled () then Obs.tee (Obs.sink ()) sink else sink);
  at_exit Obs.flush

let install_obs trace verbose =
  Option.iter (fun path -> add_sink (trace_sink ~who:"mcml" path)) trace;
  if verbose then add_sink (Mcml_obs.Trace.live ())

let obs_term = Term.(const install_obs $ trace_arg $ verbose_stats_arg)

(* --- per-process tracing & flight recorder (serve / fleet) ---------------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let trace_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-dir" ] ~docv:"DIR"
        ~doc:
          "Write this process's JSONL trace to $(docv)/<role>-<pid>.jsonl \
           (creating $(docv) if needed). 'mcml fleet' passes the flag to \
           every shard it spawns, so one directory collects the whole \
           fleet's trace for 'mcml stats --from-trace-dir'. Flight-recorder \
           dumps (SIGUSR1, or a crash) land beside the traces as \
           flight-<role>-<pid>.events.")

(* Every fleet process traces into its own file — named by role and pid
   so a respawned shard never clobbers its predecessor's trace — teed
   onto whatever sink --trace/--verbose-stats installed. *)
let install_process_trace ~role dir =
  mkdir_p dir;
  add_sink
    (trace_sink ~who:("mcml " ^ role)
       (Filename.concat dir (Printf.sprintf "%s-%d.jsonl" role (Unix.getpid ()))))

(* A bounded ring of the most recent events, dumped on demand.  The
   SIGUSR1 handler only flips a flag: dumping takes the Obs lock, and a
   signal can land on a thread already holding it — the watcher thread
   does the actual I/O.  Returns the dump function so the serve loop
   can also dump on a crash. *)
let install_flight_recorder ~role ~dir =
  let open Mcml_obs in
  let recorder = Flight.create () in
  Obs.set_sink (Obs.tee (Obs.sink ()) (Flight.sink recorder));
  let dump reason =
    let path =
      Filename.concat dir
        (Printf.sprintf "flight-%s-%d.events" role (Unix.getpid ()))
    in
    match
      mkdir_p dir;
      Flight.dump recorder path
    with
    | n ->
        Printf.eprintf "mcml %s: flight recorder dumped %d event(s) to %s (%s)\n%!"
          role n path reason
    | exception Sys_error msg ->
        Printf.eprintf "mcml %s: flight recorder dump failed: %s\n%!" role msg
  in
  let requested = Atomic.make false in
  Sys.set_signal Sys.sigusr1
    (Sys.Signal_handle (fun _ -> Atomic.set requested true));
  let (_ : Thread.t) =
    Thread.create
      (fun () ->
        while true do
          Thread.delay 0.1;
          if Atomic.exchange requested false then dump "SIGUSR1"
        done)
      ()
  in
  dump

(* The daemon lifecycle [serve] and [fleet] share.  [start] builds the
   service once telemetry is in place and returns its front end,
   connection handler and shutdown. *)
let run_daemon ~name ~role ~trace_dir ~socket ~banner ~drained start =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Option.iter (install_process_trace ~role) trace_dir;
  (* A daemon without --trace/--trace-dir/--verbose-stats still answers
     [metrics] scrapes: turn the registry on (stats_only records
     counters and histograms but emits no events) unless a real sink
     is installed. *)
  if not (Mcml_obs.Obs.enabled ()) then
    Mcml_obs.Obs.set_sink (Mcml_obs.Obs.stats_only ());
  let dump =
    install_flight_recorder ~role
      ~dir:(Option.value trace_dir ~default:(Filename.get_temp_dir_name ()))
  in
  let fe, handle, shutdown = start () in
  let on_signal _ = Mcml_serve.Frontend.drain fe in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  (try
     Printf.eprintf "mcml %s: %s\n%!" name (banner socket);
     match socket with
     | Some path ->
         Mcml_serve.Frontend.serve_unix fe ~path handle;
         Printf.eprintf "mcml %s: %s\n%!" name drained
     | None -> handle ~input:Unix.stdin ~output:stdout
   with e ->
     dump "crash";
     raise e);
  shutdown ()

(* --- list ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    Printf.printf "%-16s %-7s %s\n" "Property" "Paper" "Description";
    Printf.printf "%s\n" (String.make 72 '-');
    List.iter
      (fun p ->
        Printf.printf "%-16s %-7d %s\n" p.Props.name p.Props.paper_scope
          p.Props.description)
      Props.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the 16 relational properties of the study.")
    Term.(const run $ obs_term)

(* --- count ------------------------------------------------------------------ *)

let count_cmd =
  let negate = Arg.(value & flag & info [ "negate" ] ~doc:"Count the negation.") in
  let approx_rounds =
    Arg.(
      value
      & opt (some int) None
      & info [ "approx-rounds" ] ~docv:"T"
          ~doc:"Override the approx backend's number of median rounds.")
  in
  let run () prop scope symmetry negate backend budget approx_rounds =
    let backend =
      match (backend, approx_rounds) with
      | Mcml_counting.Counter.Approx c, Some _ ->
          Mcml_counting.Counter.Approx
            { c with Mcml_counting.Approx.max_rounds = approx_rounds }
      | b, _ -> b
    in
    let scope = Option.value scope ~default:(default_scope prop ~symmetry) in
    let analyzer = Props.analyzer ~scope in
    Printf.printf "%s at scope %d (%s, %s): counting...\n%!" prop.Props.name scope
      (if symmetry then "symmetry-broken" else "full space")
      (Mcml_counting.Counter.name backend);
    match
      Mcml_alloy.Analyzer.count ~negate ~symmetry ~budget ~backend analyzer
        ~pred:prop.Props.pred
    with
    | Some o ->
        Printf.printf "count = %s (%s) in %.2fs\n"
          (Bignat.to_string o.Mcml_counting.Counter.count)
          (if o.Mcml_counting.Counter.exact then "exact" else "approximate")
          o.Mcml_counting.Counter.time;
        (match prop.Props.closed_form scope with
        | Some cf when (not symmetry) && not negate ->
            Printf.printf "closed form = %s\n" (Bignat.to_string cf)
        | _ -> ())
    | None -> print_endline "timeout"
  in
  Cmd.v
    (Cmd.info "count" ~doc:"Model-count a property at a scope.")
    Term.(
      const run $ obs_term $ prop_arg $ scope_arg $ symmetry_arg $ negate $ backend_arg
      $ budget_arg $ approx_rounds)

(* --- enumerate --------------------------------------------------------------- *)

let enumerate_cmd =
  let limit =
    Arg.(value & opt int 10 & info [ "limit" ] ~docv:"K" ~doc:"Max solutions to show.")
  in
  let run () prop scope symmetry limit =
    let scope = Option.value scope ~default:(default_scope prop ~symmetry) in
    let analyzer = Props.analyzer ~scope in
    let insts, complete =
      Mcml_alloy.Analyzer.enumerate ~symmetry ~limit analyzer ~pred:prop.Props.pred
    in
    List.iteri
      (fun i inst ->
        Printf.printf "solution %d:\n%s\n" (i + 1)
          (Format.asprintf "%a" Mcml_alloy.Instance.pp inst))
      insts;
    Printf.printf "%d solution(s)%s\n" (List.length insts)
      (if complete then "" else " (more exist; raise --limit)")
  in
  Cmd.v
    (Cmd.info "enumerate" ~doc:"Enumerate solutions of a property at a scope.")
    Term.(const run $ obs_term $ prop_arg $ scope_arg $ symmetry_arg $ limit)

(* --- dimacs -------------------------------------------------------------------- *)

let dimacs_cmd =
  let negate = Arg.(value & flag & info [ "negate" ] ~doc:"Emit the negation.") in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output path (default: stdout).")
  in
  let run () prop scope symmetry negate out =
    let scope = Option.value scope ~default:(default_scope prop ~symmetry) in
    let analyzer = Props.analyzer ~scope in
    let cnf = Mcml_alloy.Analyzer.cnf ~negate ~symmetry analyzer ~pred:prop.Props.pred in
    match out with
    | Some path ->
        Dimacs.save path cnf;
        Printf.printf "wrote %s (%s)\n" path (Format.asprintf "%a" Cnf.pp_stats cnf)
    | None -> print_string (Dimacs.to_string cnf)
  in
  Cmd.v
    (Cmd.info "dimacs" ~doc:"Export a property's CNF (with 'c ind' sampling set).")
    Term.(const run $ obs_term $ prop_arg $ scope_arg $ symmetry_arg $ negate $ out)

(* --- train-eval --------------------------------------------------------------------- *)

let train_eval_cmd =
  let model_arg =
    let model_converter =
      Arg.conv
        ( (fun s ->
            match Mcml_ml.Model.kind_of_name s with
            | Some k -> Ok k
            | None -> Error (`Msg "model must be DT | RFT | ABT | GBDT | SVM | MLP")),
          fun fmt k -> Format.pp_print_string fmt (Mcml_ml.Model.name_of k) )
    in
    Arg.(value & opt model_converter Mcml_ml.Model.DT & info [ "m"; "model" ] ~docv:"MODEL" ~doc:"Model kind.")
  in
  let fraction =
    Arg.(value & opt float 0.75 & info [ "train-fraction" ] ~docv:"F" ~doc:"Training fraction (0.75 = the 75:25 split).")
  in
  let run () prop scope symmetry model fraction seed budget backend =
    let scope = Option.value scope ~default:(default_scope prop ~symmetry) in
    Printf.printf "# %s, scope %d, %s data, model %s, train fraction %.2f\n%!"
      prop.Props.name scope
      (if symmetry then "symmetry-broken" else "unrestricted")
      (Mcml_ml.Model.name_of model) fraction;
    let data =
      generate prop
        { Pipeline.scope; symmetry; max_positives = 3000; seed }
    in
    Printf.printf "dataset: %d samples (%d positive solutions%s)\n%!"
      (Mcml_ml.Dataset.size data.Pipeline.dataset)
      data.Pipeline.num_positive_solutions
      (if data.Pipeline.positives_complete then "" else ", capped");
    let m, _, test =
      Pipeline.train_eval ~train_fraction:fraction ~seed model data.Pipeline.dataset
    in
    let c = Mcml_ml.Model.evaluate m test in
    Printf.printf "test    : acc=%.4f prec=%.4f rec=%.4f f1=%.4f\n"
      (Mcml_ml.Metrics.accuracy c) (Mcml_ml.Metrics.precision c)
      (Mcml_ml.Metrics.recall c) (Mcml_ml.Metrics.f1 c);
    match m.Mcml_ml.Model.tree with
    | None -> print_endline "(MCML metrics need a decision tree; use --model DT)"
    | Some tree -> (
        match
          Pipeline.accmc ~budget ~backend ~prop ~scope ~eval_symmetry:symmetry tree
        with
        | Some counts ->
            let c = Accmc.confusion counts in
            Printf.printf
              "phi     : acc=%.4f prec=%.4f rec=%.4f f1=%.4f   (tp=%s fp=%s tn=%s fn=%s, %.1fs)\n"
              (Mcml_ml.Metrics.accuracy c) (Mcml_ml.Metrics.precision c)
              (Mcml_ml.Metrics.recall c) (Mcml_ml.Metrics.f1 c)
              (Bignat.to_scientific counts.Accmc.tp)
              (Bignat.to_scientific counts.Accmc.fp)
              (Bignat.to_scientific counts.Accmc.tn)
              (Bignat.to_scientific counts.Accmc.fn)
              counts.Accmc.time
        | None -> print_endline "phi     : timeout")
  in
  Cmd.v
    (Cmd.info "train-eval"
       ~doc:"Train a model and evaluate it on the test set and (for DT) the entire space.")
    Term.(
      const run $ obs_term $ prop_arg $ scope_arg $ symmetry_arg $ model_arg $ fraction
      $ seed_arg $ budget_arg $ backend_arg)

(* --- diff ------------------------------------------------------------------------ *)

let diff_cmd =
  let run () prop scope symmetry seed budget backend =
    let scope = Option.value scope ~default:(default_scope prop ~symmetry) in
    let data =
      generate prop { Pipeline.scope; symmetry; max_positives = 3000; seed }
    in
    let t1, t2 = Pipeline.diffmc_trees ~seed data.Pipeline.dataset in
    let nprimary = scope * scope in
    match Diffmc.counts ~budget ~backend ~nprimary t1 t2 with
    | Some c ->
        Printf.printf "TT=%s TF=%s FT=%s FF=%s  diff=%.2f%% sim=%.2f%%  (%.1fs)\n"
          (Bignat.to_scientific c.Diffmc.tt) (Bignat.to_scientific c.Diffmc.tf)
          (Bignat.to_scientific c.Diffmc.ft) (Bignat.to_scientific c.Diffmc.ff)
          (100.0 *. Diffmc.diff c ~nprimary)
          (100.0 *. Diffmc.sim c ~nprimary)
          c.Diffmc.time
    | None -> print_endline "timeout"
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"DiffMC: quantify the semantic difference between two trees trained with different hyperparameters.")
    Term.(
      const run $ obs_term $ prop_arg $ scope_arg $ symmetry_arg $ seed_arg $ budget_arg
      $ backend_arg)

(* --- trace replay helpers (stats --from-trace) ----------------------------------- *)

(* [load] a trace file or directory: unreadable exits 2, malformed 1 *)
let load_trace load src =
  match load src with
  | exception Sys_error msg ->
      Printf.eprintf "mcml: cannot read trace: %s\n" msg;
      exit 2
  | Error errs ->
      Printf.eprintf "mcml: malformed trace %s:\n" src;
      List.iter (fun e -> Printf.eprintf "  %s\n" e) errs;
      exit 1
  | Ok t -> t

(* Per span name, the time spent in that span itself (children
   excluded), largest first. *)
let print_self_times t ~top =
  let rows = Mcml_obs.Trace.self_times t in
  let total = List.fold_left (fun acc (_, _, s) -> acc +. s) 0.0 rows in
  let shown =
    if top > 0 && top < List.length rows then top else List.length rows
  in
  Printf.printf "-- self time (top %d of %d, total %.3fms) %s\n" shown
    (List.length rows) total
    (String.make 24 '-');
  Printf.printf "%-36s %10s %14s %7s\n" "span" "calls" "self" "share";
  List.iteri
    (fun i (name, calls, self) ->
      if i < shown then
        Printf.printf "%-36s %10d %12.3fms %6.1f%%\n" name calls self
          (if total > 0.0 then 100.0 *. self /. total else 0.0))
    rows

(* --- stats ----------------------------------------------------------------------- *)

let stats_cmd =
  let from_trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "from-trace" ] ~docv:"FILE"
          ~doc:
            "Instead of running a pipeline, read back a JSONL trace written \
             by --trace: validate every line against the schema (unknown \
             event kinds, missing fields, dangling or cyclic parent ids, \
             and unbalanced spans are fatal), then print the report a live \
             run prints.  Exits 1 on a malformed trace.")
  in
  let from_trace_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "from-trace-dir" ] ~docv:"DIR"
          ~doc:
            "Like --from-trace, but read and merge every *.jsonl file in \
             $(docv) — the layout a fleet run with --trace-dir writes (one \
             file per process).  Remote parent references are resolved \
             across files; a dangling one is as fatal as a dangling local \
             parent.  The report adds a per-process table and the \
             cross-process parent edge count.")
  in
  let shape_arg =
    Arg.(
      value
      & flag
      & info [ "shape" ]
          ~doc:
            "With --from-trace: print only the canonical forest shape (span \
             names, parent edges, call counts — no ids, timings or domains). \
             The shape of a --jobs N trace is byte-identical to the --jobs 1 \
             trace of the same run, which is what bin/check.sh diffs.")
  in
  let top_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "top" ] ~docv:"N"
          ~doc:
            "With --from-trace: print only the top $(docv) spans by self \
             time (children excluded; 0 = all spans), instead of the \
             report.")
  in
  let folded_arg =
    Arg.(
      value
      & flag
      & info [ "folded" ]
          ~doc:
            "With --from-trace: print only folded stacks for flamegraph.pl \
             or speedscope, one 'root;child;leaf MICROSECONDS' line (self \
             time) per aggregated call path; a merged fleet's root frames \
             read pidN/name.")
  in
  let replay_trace t ~shape ~top ~folded =
    if shape then print_string (Mcml_obs.Trace.shape t)
    else if folded then
      (* flamegraph.pl wants integer values; integer microseconds keep
         sub-millisecond spans from rounding away *)
      List.iter
        (fun (stack, self_ms) ->
          Printf.printf "%s %.0f\n" stack (Float.round (self_ms *. 1000.0)))
        (Mcml_obs.Trace.folded t)
    else
      match top with
      | Some n -> print_self_times t ~top:n
      | None -> Mcml_obs.Trace.render stdout t
  in
  let run trace _verbose from_trace from_trace_dir shape top folded prop scope
      symmetry seed budget backend =
    let usage msg =
      Printf.eprintf "mcml stats: %s\n" msg;
      exit 2
    in
    let views = List.length (List.filter Fun.id [ shape; top <> None; folded ]) in
    if views > 1 then usage "--shape, --top and --folded are mutually exclusive";
    let replaying = from_trace <> None || from_trace_dir <> None in
    if views > 0 && not replaying then
      usage "--shape, --top and --folded need --from-trace or --from-trace-dir";
    (* a live run prints the report itself: --verbose-stats adds nothing *)
    install_obs trace (not replaying);
    match (from_trace, from_trace_dir) with
    | Some _, Some _ ->
        usage "--from-trace and --from-trace-dir are mutually exclusive"
    | Some path, None ->
        replay_trace (load_trace Mcml_obs.Trace.load path) ~shape ~top ~folded
    | None, Some dir ->
        replay_trace (load_trace Mcml_obs.Trace.load_dir dir) ~shape ~top ~folded
    | None, None ->
    let prop =
      match prop with
      | Some p -> p
      | None -> usage "needs --property (or --from-trace FILE)"
    in
    let scope = Option.value scope ~default:(default_scope prop ~symmetry) in
    Printf.printf "# instrumented run: %s at scope %d (%s, %s backend)\n%!"
      prop.Props.name scope
      (if symmetry then "symmetry-broken" else "full space")
      (Mcml_counting.Counter.name backend);
    let data =
      generate prop { Pipeline.scope; symmetry; max_positives = 3000; seed }
    in
    let m, train, test = Pipeline.train_eval ~seed Mcml_ml.Model.DT data.Pipeline.dataset in
    let c = Mcml_ml.Model.evaluate m test in
    Printf.printf "test  : acc=%.4f f1=%.4f (%d train / %d test samples)\n%!"
      (Mcml_ml.Metrics.accuracy c) (Mcml_ml.Metrics.f1 c)
      (Mcml_ml.Dataset.size train) (Mcml_ml.Dataset.size test);
    (match m.Mcml_ml.Model.tree with
    | None -> ()
    | Some tree -> (
        match
          Pipeline.accmc ~budget ~backend ~prop ~scope ~eval_symmetry:symmetry tree
        with
        | Some counts ->
            let c = Accmc.confusion counts in
            Printf.printf "phi   : acc=%.4f f1=%.4f (%.1fs)\n%!"
              (Mcml_ml.Metrics.accuracy c) (Mcml_ml.Metrics.f1 c) counts.Accmc.time
        | None -> print_endline "phi   : timeout"));
    Mcml_obs.Obs.flush ()
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run an instrumented generate/train/count pipeline and print its \
          report: the aggregated span forest, latency and counter tables \
          (combine with --trace for a JSONL trace) — or, with --from-trace \
          FILE, validate an existing trace and print the same report, its \
          shape, its top spans by self time or its folded stacks \
          (--from-trace-dir merges a fleet's per-process traces).")
    Term.(
      const run $ trace_arg $ verbose_stats_arg $ from_trace_arg
      $ from_trace_dir_arg $ shape_arg $ top_arg $ folded_arg $ prop_opt_arg
      $ scope_arg $ symmetry_arg $ seed_arg $ budget_arg $ backend_arg)

(* --- exp ------------------------------------------------------------------------- *)

let exp_cmd =
  let table =
    Arg.(
      required
      & pos 0 (some int) None
      & info [] ~docv:"TABLE" ~doc:"Paper table number (1-9).")
  in
  let jobs =
    Arg.(
      value
      & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for the experiment driver. The default (1) runs \
             sequentially; any higher setting produces identical tables, only \
             faster.")
  in
  let no_cache =
    Arg.(
      value
      & flag
      & info [ "no-count-cache" ]
          ~doc:"Disable the content-addressed model-count cache.")
  in
  let run () table seed budget jobs no_cache =
    let pool =
      if jobs > 1 then Some (Mcml_exec.Pool.create ~jobs ()) else None
    in
    let cache =
      if no_cache then None else Some (Mcml_counting.Counter.cache_create ())
    in
    at_exit (fun () -> Option.iter Mcml_exec.Pool.shutdown pool);
    let cfg = { Experiments.fast with Experiments.seed; budget; pool; cache } in
    match Report.table Format.std_formatter cfg table with
    | Ok () -> ()
    | Error msg ->
        Printf.eprintf "mcml exp: %s\n" msg;
        exit 2
  in
  Cmd.v
    (Cmd.info "exp" ~doc:"Regenerate one of the paper's tables (scaled-down configuration).")
    Term.(const run $ obs_term $ table $ seed_arg $ budget_arg $ jobs $ no_cache)

(* --- serve ----------------------------------------------------------------------- *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Unix-domain socket to listen on. Without it the server speaks the \
           same JSONL protocol over stdin/stdout (one-shot pipelines, tests).")

let serve_cmd =
  let jobs =
    Arg.(
      value
      & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains for the request pool (1 = run requests inline).")
  in
  let admission =
    Arg.(
      value
      & opt int Mcml_serve.Server.default_config.Mcml_serve.Server.admission
      & info [ "admission" ] ~docv:"N"
          ~doc:
            "Max counting requests in flight before new ones are rejected \
             with code \"overloaded\" (0 rejects all counting requests).")
  in
  let queue_cap =
    Arg.(
      value
      & opt int Mcml_serve.Server.default_config.Mcml_serve.Server.queue_cap
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:
            "Per-connection cap on responses queued for writing; a full queue \
             pauses reading (socket backpressure).")
  in
  let no_cache =
    Arg.(
      value
      & flag
      & info [ "no-count-cache" ]
          ~doc:"Disable the shared cross-request model-count cache.")
  in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Back the count cache with a persistent on-disk cache at $(docv) \
             (append-only CRC-checked log; survives restarts). One writer \
             per directory.")
  in
  let shard_id =
    Arg.(
      value
      & opt (some int) None
      & info [ "shard-id" ] ~docv:"N"
          ~doc:
            "Fleet shard identity: stamp health/stats responses with a \
             \"shard\" field. Set by 'mcml fleet' on the shards it spawns.")
  in
  let run () socket jobs admission queue_cap no_cache cache_dir shard_id
      trace_dir =
    if admission < 0 then begin
      Printf.eprintf "mcml serve: --admission must be >= 0\n";
      exit 2
    end;
    if queue_cap < 1 then begin
      Printf.eprintf "mcml serve: --queue-cap must be >= 1\n";
      exit 2
    end;
    run_daemon ~name:"serve"
      ~role:(match shard_id with Some _ -> "shard" | None -> "serve")
      ~trace_dir ~socket
      ~banner:(function
        | Some path ->
            Printf.sprintf "listening on %s (jobs=%d, admission=%d)" path jobs
              admission
        | None -> Printf.sprintf "speaking JSONL on stdio (jobs=%d)" jobs)
      ~drained:"drained, exiting"
      (fun () ->
        let srv =
          Mcml_serve.Server.create
            {
              Mcml_serve.Server.default_config with
              jobs;
              admission;
              queue_cap;
              cache = not no_cache;
              shard_id;
              cache_dir;
            }
        in
        ( Mcml_serve.Server.frontend srv,
          Mcml_serve.Server.handle_connection srv,
          fun () -> Mcml_serve.Server.shutdown srv ))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the counting service: a long-lived daemon answering JSONL \
          count/accmc/diffmc/health/stats/metrics requests over a Unix \
          socket (or stdio) with a shared count cache, per-request \
          deadlines, bounded admission, live OpenMetrics scraping, and \
          graceful drain on SIGTERM/SIGINT.")
    Term.(
      const run $ obs_term $ socket_arg $ jobs $ admission $ queue_cap
      $ no_cache $ cache_dir $ shard_id $ trace_dir_arg)

(* --- fleet ----------------------------------------------------------------------- *)

let fleet_cmd =
  let shards =
    Arg.(
      value
      & opt int 2
      & info [ "shards" ] ~docv:"N"
          ~doc:"Number of shard processes (each a full 'mcml serve').")
  in
  let jobs =
    Arg.(
      value
      & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker domains per shard.")
  in
  let admission =
    Arg.(
      value
      & opt int Mcml_serve.Server.default_config.Mcml_serve.Server.admission
      & info [ "admission" ] ~docv:"N" ~doc:"Per-shard admission limit.")
  in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Root of the persistent count cache; shard $(i,i) owns \
             $(docv)/shard-$(i,i) (the ring partitions keys, so slices \
             never overlap).")
  in
  let shard_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "shard-dir" ] ~docv:"DIR"
          ~doc:
            "Directory for the shard sockets (default: a per-pid directory \
             under the system temp dir).")
  in
  let run () socket shards jobs admission cache_dir shard_dir trace_dir =
    if shards < 1 then begin
      Printf.eprintf "mcml fleet: --shards must be >= 1\n";
      exit 2
    end;
    let dir =
      match shard_dir with
      | Some d -> d
      | None ->
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "mcml-fleet-%d" (Unix.getpid ()))
    in
    run_daemon ~name:"fleet" ~role:"router" ~trace_dir ~socket
      ~banner:(function
        | Some path ->
            Printf.sprintf "%d shard(s) under %s, listening on %s%s" shards dir
              path
              (match cache_dir with
              | Some d -> Printf.sprintf " (cache %s)" d
              | None -> "")
        | None ->
            Printf.sprintf "%d shard(s) under %s, speaking JSONL on stdio"
              shards dir)
      ~drained:"drained, stopping shards"
      (fun () ->
        let procs =
          Mcml_fleet.Proc.start
            {
              (Mcml_fleet.Proc.default_config ~exe:Sys.executable_name ~dir) with
              Mcml_fleet.Proc.shards;
              jobs;
              admission;
              cache_dir;
              trace_dir;
            }
        in
        let router =
          Mcml_fleet.Router.create
            ~restarts:(fun () -> Mcml_fleet.Proc.restarts procs)
            { Mcml_fleet.Router.default_config with Mcml_fleet.Router.shards }
            ~dispatch:(Mcml_fleet.Proc.dispatch procs)
        in
        ( Mcml_fleet.Router.frontend router,
          Mcml_fleet.Router.handle_connection router,
          fun () ->
            Mcml_fleet.Router.shutdown router;
            Mcml_fleet.Proc.stop procs ))
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Run a sharded counting fleet: N supervised 'mcml serve' shard \
          processes behind one JSONL endpoint. Counting requests are \
          consistent-hashed across shards and deduplicated in flight; \
          health/stats/metrics fan out and merge; a crashed shard is \
          respawned with bounded backoff while the router retries its \
          requests. With --cache-dir, counts persist across restarts. With \
          --trace-dir, every process traces into its own JSONL file for \
          'mcml stats --from-trace-dir' to merge.")
    Term.(
      const run $ obs_term $ socket_arg $ shards $ jobs $ admission $ cache_dir
      $ shard_dir $ trace_dir_arg)

(* --- cache ----------------------------------------------------------------------- *)

let cache_cmd =
  let dir_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR" ~doc:"Persistent cache directory.")
  in
  (* stats: read-only open (no writer lock), so it works against a live
     server's cache directory. *)
  let stats_cmd =
    let run () dir =
      match Mcml_exec.Diskcache.open_ ~readonly:true dir with
      | exception Failure msg ->
          Printf.eprintf "mcml cache stats: %s\n" msg;
          exit 1
      | dc ->
          let s = Mcml_exec.Diskcache.stats dc in
          Mcml_exec.Diskcache.close dc;
          Printf.printf "entries   %d\nlog_bytes %d\nrecovered %d\n"
            s.Mcml_exec.Diskcache.entries s.Mcml_exec.Diskcache.log_bytes
            s.Mcml_exec.Diskcache.recovered_bytes
    in
    Cmd.v
      (Cmd.info "stats" ~doc:"Print entry and size statistics of a cache directory.")
      Term.(const run $ obs_term $ dir_arg)
  in
  let verify_cmd =
    let run () dir =
      match Mcml_exec.Diskcache.verify dir with
      | Ok s ->
          Printf.printf "ok: %d entries, %d bytes\n" s.Mcml_exec.Diskcache.entries
            s.Mcml_exec.Diskcache.log_bytes
      | Error msg ->
          Printf.printf "corrupt: %s\n" msg;
          exit 1
    in
    Cmd.v
      (Cmd.info "verify"
         ~doc:
           "Scan every record of the log and checksum it (read-only; never \
            repairs). Exit 1 on the first defect.")
      Term.(const run $ obs_term $ dir_arg)
  in
  (* warm: precompute counts into the cache so a later serve/fleet starts
     hot.  With --shards N the key space is partitioned exactly like the
     fleet router partitions it, each outcome landing in the slice of
     the shard that will be asked for it. *)
  let warm_cmd =
    let props_arg =
      Arg.(
        value
        & opt_all prop_converter []
        & info [ "p"; "property" ] ~docv:"PROP"
            ~doc:"Property to warm (repeatable; default: all 16).")
    in
    let scopes_arg =
      Arg.(
        value
        & opt_all int []
        & info [ "s"; "scope" ] ~docv:"N"
            ~doc:"Scope to warm (repeatable; default: the paper's rule per property).")
    in
    let shards_arg =
      Arg.(
        value
        & opt int 0
        & info [ "shards" ] ~docv:"N"
            ~doc:
              "Partition into per-shard slices ($(b,DIR)/shard-$(i,i)) with \
               the fleet's ring; 0 (default) writes $(b,DIR) flat for a \
               single 'mcml serve --cache-dir'.")
    in
    let run () dir props scopes symmetry backend budget shards =
      let props = match props with [] -> Props.all | ps -> ps in
      (* one open handle per target slice, created on first use *)
      let handles : (int, Mcml_exec.Diskcache.t) Hashtbl.t = Hashtbl.create 8 in
      let ring =
        if shards > 0 then Some (Mcml_fleet.Ring.create ~shards ()) else None
      in
      let slice key =
        let idx = match ring with None -> -1 | Some r -> Mcml_fleet.Ring.shard r key in
        match Hashtbl.find_opt handles idx with
        | Some dc -> dc
        | None ->
            let path =
              if idx < 0 then dir
              else Filename.concat dir (Printf.sprintf "shard-%d" idx)
            in
            let dc = Mcml_exec.Diskcache.open_ path in
            Hashtbl.replace handles idx dc;
            dc
      in
      let caches : (int, Mcml_counting.Counter.cache) Hashtbl.t = Hashtbl.create 8 in
      let cache_for idx dc =
        match Hashtbl.find_opt caches idx with
        | Some c -> c
        | None ->
            let c = Mcml_counting.Counter.cache_create ~disk:dc () in
            Hashtbl.replace caches idx c;
            c
      in
      List.iter
        (fun prop ->
          let scopes =
            match scopes with
            | [] -> [ default_scope prop ~symmetry ]
            | ss -> ss
          in
          List.iter
            (fun scope ->
              (* the fleet places a request by its ring key, so
                 warming must hash the same string the router will;
                 that key has no budget, so any --budget lands where
                 the served request will *)
              let req =
                {
                  Mcml_serve.Protocol.id = Mcml_obs.Json.Null;
                  trace = None;
                  deadline_ms = None;
                  kind =
                    Mcml_serve.Protocol.Count
                      {
                        Mcml_serve.Protocol.prop;
                        scope = Some scope;
                        symmetry;
                        negate = false;
                        backend;
                        budget;
                        seed = 20200615;
                      };
                }
              in
              let key = (Option.get (Mcml_fleet.Router.routing_keys req)).ring in
              let dc = slice key in
              let idx = match ring with None -> -1 | Some r -> Mcml_fleet.Ring.shard r key in
              let cache = cache_for idx dc in
              let analyzer = Props.analyzer ~scope in
              match
                Mcml_alloy.Analyzer.count ~negate:false ~symmetry ~budget ~cache
                  ~backend analyzer ~pred:prop.Props.pred
              with
              | Some o ->
                  Printf.printf "%-16s scope %-3d %s= %s\n%!" prop.Props.name
                    scope
                    (match ring with
                    | None -> ""
                    | Some r ->
                        Printf.sprintf "shard %d " (Mcml_fleet.Ring.shard r key))
                    (Bignat.to_string o.Mcml_counting.Counter.count)
              | None ->
                  Printf.printf "%-16s scope %-3d timeout (not cached)\n%!"
                    prop.Props.name scope)
            scopes)
        props;
      Hashtbl.iter (fun _ dc -> Mcml_exec.Diskcache.close dc) handles
    in
    Cmd.v
      (Cmd.info "warm"
         ~doc:
           "Precompute model counts into a persistent cache directory so a \
            later 'mcml serve --cache-dir' or 'mcml fleet --cache-dir' \
            starts hot.")
      Term.(
        const run $ obs_term $ dir_arg $ props_arg $ scopes_arg $ symmetry_arg
        $ backend_arg $ budget_arg $ shards_arg)
  in
  Cmd.group
    (Cmd.info "cache"
       ~doc:
         "Inspect and populate the persistent on-disk count cache (the \
          append-only CRC-checked log behind 'serve --cache-dir' and \
          'fleet --cache-dir').")
    [ warm_cmd; stats_cmd; verify_cmd ]

(* --- client ---------------------------------------------------------------------- *)

let client_cmd =
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Socket of a running 'mcml serve'.")
  in
  let request_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"REQUEST"
          ~doc:
            "Optional one-shot request. $(b,metrics) scrapes the server's \
             live OpenMetrics exposition and prints the raw text. Without \
             it, JSONL requests are read from stdin.")
  in
  let retries_arg =
    Arg.(
      value
      & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry a refused/absent connection up to $(docv) times (a fleet \
             shard or server may be restarting). Default 0: fail hard, \
             which is what tests asserting unavailability want.")
  in
  let retry_ms_arg =
    Arg.(
      value
      & opt int 100
      & info [ "retry-ms" ] ~docv:"MS"
          ~doc:
            "Base delay between connection retries; doubles per attempt \
             (capped at 5s) with up to 25% random jitter added.")
  in
  (* Run [attempt] until it returns [Ok]; an [Error (`Retry _)] sleeps
     retry_ms·2^k (capped at 5 s) plus up to 25% random jitter and tries
     again while [retries] remain.  The last error comes back with the
     number of attempts made. *)
  let with_retries ~retries ~retry_ms attempt =
    let rng = lazy (Random.State.make_self_init ()) in
    let rec go n delay_ms =
      match attempt () with
      | Error (`Retry _) when n < retries ->
          let jitter =
            Random.State.float (Lazy.force rng) (float_of_int delay_ms *. 0.25)
          in
          Unix.sleepf ((float_of_int delay_ms +. jitter) /. 1000.0);
          go (n + 1) (min (delay_ms * 2) 5000)
      | Ok v -> Ok v
      | Error e -> Error (e, n + 1)
    in
    go 0 (max 1 retry_ms)
  in
  let fail ~retries ?attempts (code, msg) =
    Printf.eprintf "mcml client: %s%s\n" msg
      (match attempts with
      | Some n when retries > 0 -> Printf.sprintf " (after %d attempt(s))" n
      | _ -> "");
    exit code
  in
  (* Only connect refusal retries: ECONNREFUSED (socket exists, nobody
     accepting) and ENOENT (socket not bound yet).  Anything else —
     permissions, a non-socket path — fails immediately however many
     retries remain. *)
  let connect path =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> Ok fd
    | exception Unix.Unix_error (e, _, _) -> (
        Unix.close fd;
        let msg =
          Printf.sprintf "cannot connect to %s: %s" path (Unix.error_message e)
        in
        match e with
        | Unix.ECONNREFUSED | Unix.ENOENT -> Error (`Retry (2, msg))
        | _ -> Error (`Fatal (2, msg)))
  in
  (* One exchange on a connected socket: a sender thread writes the
     requests and half-closes, so responses stream back while requests
     are still being written — no deadlock however long the input is.
     A failed write (the server went away) shows on the reading side. *)
  let exchange fd ~send ~recv =
    let sender =
      Thread.create
        (fun () ->
          (try
             let oc = Unix.out_channel_of_descr fd in
             send oc;
             flush oc
           with Sys_error _ -> ());
          try Unix.shutdown fd Unix.SHUTDOWN_SEND
          with Unix.Unix_error (_, _, _) -> ())
        ()
    in
    let r = recv (Unix.in_channel_of_descr fd) in
    Thread.join sender;
    r
  in
  (* One-shot scrape: send a metrics request, unwrap the exposition
     text from the JSON envelope, return it raw (greppable, and exactly
     what a Prometheus file-based scraper wants on disk).

     Unlike the stdin stream, the *whole exchange* — connect, write,
     read — retries under --retries: a restarting shard or server can
     accept the connection and die before answering, and a scrape that
     survives the connect only to fail on the first read has learned
     nothing the next attempt can't fix.  Protocol-level failures (a bad
     response, an error body) are fatal immediately: retrying them would
     just repeat the answer. *)
  let scrape ic =
    match input_line ic with
    | exception End_of_file ->
        Error (`Retry (1, "server closed without answering"))
    | exception Sys_error msg -> Error (`Retry (1, "exchange failed: " ^ msg))
    | line -> (
        match Mcml_serve.Protocol.response_of_string line with
        | Error msg -> Error (`Fatal (1, "bad response: " ^ msg))
        | Ok { Mcml_serve.Protocol.body = Error (code, msg); _ } ->
            Error (`Fatal (1, Mcml_serve.Protocol.code_name code ^ ": " ^ msg))
        | Ok { Mcml_serve.Protocol.body = Ok payload; _ } -> (
            match Mcml_obs.Json.member "exposition" payload with
            | Some (Mcml_obs.Json.Str text) -> Ok text
            | _ -> Error (`Fatal (1, "metrics response without exposition text"))))
  in
  let copy_stdin oc =
    try
      while true do
        let line = input_line stdin in
        if String.trim line <> "" then begin
          output_string oc line;
          output_char oc '\n'
        end
      done
    with End_of_file -> ()
  in
  let print_responses ic =
    try
      while true do
        print_endline (input_line ic)
      done
    with End_of_file | Sys_error _ -> ()
  in
  let check_arg =
    Arg.(
      value
      & flag
      & info [ "check" ]
          ~doc:
            "With $(b,metrics): after printing the exposition, validate it \
             against the OpenMetrics grammar (declared families, typed \
             suffixes, final # EOF) and exit 1 if it fails — a one-flag \
             scrape health gate for scripts and CI.")
  in
  let run () path request retries retry_ms check =
    (match request with
    | None | Some "metrics" -> ()
    | Some other ->
        Printf.eprintf "mcml client: unknown request %S (try: metrics)\n" other;
        exit 2);
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    if request = Some "metrics" then begin
      let attempt () =
        Result.bind (connect path) (fun fd ->
            Fun.protect
              ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
              (fun () ->
                exchange fd ~recv:scrape ~send:(fun oc ->
                    output_string oc "{\"id\":0,\"kind\":\"metrics\"}\n")))
      in
      let text =
        match with_retries ~retries ~retry_ms attempt with
        | Ok text -> text
        | Error (`Fatal e, _) -> fail ~retries e
        | Error (`Retry e, attempts) -> fail ~retries ~attempts e
      in
      print_string text;
      (if check then
         match Mcml_obs.Metrics.lint text with
         | Ok () -> ()
         | Error msg ->
             Printf.eprintf "mcml client: exposition failed lint: %s\n" msg;
             exit 1);
      exit 0
    end;
    (* a stream retries only its connect: stdin cannot be read twice *)
    match with_retries ~retries ~retry_ms (fun () -> connect path) with
    | Error ((`Retry e | `Fatal e), attempts) -> fail ~retries ~attempts e
    | Ok fd ->
        exchange fd ~send:copy_stdin ~recv:print_responses;
        Unix.close fd
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send JSONL requests from stdin to a running 'mcml serve' socket and \
          print the responses (in request order) to stdout — or, with the \
          $(b,metrics) argument, scrape and print the live OpenMetrics \
          exposition (against a fleet socket: the merged, shard-labeled \
          fleet exposition).")
    Term.(
      const run $ obs_term $ socket $ request_arg $ retries_arg $ retry_ms_arg
      $ check_arg)

(* --- main ------------------------------------------------------------------------ *)

let () =
  let doc = "MCML: model counting meets machine learning (PLDI 2020 reproduction)" in
  let info = Cmd.info "mcml" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            count_cmd;
            enumerate_cmd;
            dimacs_cmd;
            train_eval_cmd;
            diff_cmd;
            stats_cmd;
            exp_cmd;
            serve_cmd;
            fleet_cmd;
            cache_cmd;
            client_cmd;
          ]))
