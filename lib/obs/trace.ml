type span = {
  pid : int;
  id : int;
  parent : int option;
  remote_parent : (int * int) option;
  trace : int option;
  domain : int;
  name : string;
  dur_ms : float;
  attrs : (string * Obs.attr) list;
  children : span list;
}

(* One row of the report: the spans on one path from a root, with
   same-name siblings collapsed (call count, total duration, numeric
   attributes summed, other attributes last-wins). *)
type node = {
  a_name : string;
  mutable a_calls : int;
  mutable a_total_ms : float;
  mutable a_attrs : (string * Obs.attr) list; (* most recently merged first *)
  mutable a_children : node list; (* reverse first-seen order *)
}

type t = {
  roots : span list;
  num_spans : int;
  counters : (string * float) list;
  gauges : (string * float) list;
  histograms : (string * Obs.hist_stats) list;
  domains : (int * int * float) list;
  pids : (int * int * float) list;
  remote_edges : int;
  cross_pid_edges : int;
  tree : node;
}

(* --- the report's tally --------------------------------------------------- *)

(* The live sink and the replay feed events to one of these in stream
   order, so the same events give the same rows, in the same order,
   with the same float sums. *)
type tally = {
  root : node;
  rows : (int * int, node * int) Hashtbl.t; (* span -> its row, start domain *)
  by_domain : (int, int ref * float ref) Hashtbl.t;
  by_pid : (int, int ref * float ref) Hashtbl.t;
  counters : (int * string, float) Hashtbl.t; (* last value per process *)
  gauges : (int * string, float) Hashtbl.t; (* last value per process *)
  hists : (int * string, Obs.hist_stats) Hashtbl.t; (* last summary per process *)
}

let fresh_node name =
  { a_name = name; a_calls = 0; a_total_ms = 0.0; a_attrs = []; a_children = [] }

let tally () =
  {
    root = fresh_node "<root>";
    rows = Hashtbl.create 64;
    by_domain = Hashtbl.create 8;
    by_pid = Hashtbl.create 8;
    counters = Hashtbl.create 64;
    gauges = Hashtbl.create 32;
    hists = Hashtbl.create 32;
  }

(* idempotent: a row made early for a parent is found again at its start *)
let child_of parent name =
  match List.find_opt (fun n -> n.a_name = name) parent.a_children with
  | Some n -> n
  | None ->
      let n = fresh_node name in
      parent.a_children <- n :: parent.a_children;
      n

let merge_attr acc (k, v) =
  match (List.assoc_opt k acc, v) with
  | Some (Obs.Int a), Obs.Int b -> (k, Obs.Int (a + b)) :: List.remove_assoc k acc
  | Some (Obs.Float a), Obs.Float b ->
      (k, Obs.Float (a +. b)) :: List.remove_assoc k acc
  | Some (Obs.Int a), Obs.Float b | Some (Obs.Float b), Obs.Int a ->
      (k, Obs.Float (float_of_int a +. b)) :: List.remove_assoc k acc
  | Some _, v -> (k, v) :: List.remove_assoc k acc
  | None, v -> (k, v) :: acc

let bump tbl key dur_ms =
  match Hashtbl.find_opt tbl key with
  | Some (n, d) ->
      incr n;
      d := !d +. dur_ms
  | None -> Hashtbl.add tbl key (ref 1, ref dur_ms)

(* A span's row hangs under its parent's, local or remote; [orphan up]
   gives the row for a parent [up] that has none in [rows]. *)
let row_under tl ~orphan up name =
  child_of
    (match Option.bind up (Hashtbl.find_opt tl.rows) with
    | Some (n, _) -> n
    | None -> orphan up)
    name

(* With [forget], an ended span leaves [rows], which then holds open
   spans only. *)
let feed tl ~forget ~orphan = function
  | Obs.Span_start { name; id; parent; domain; pid; remote; _ } ->
      let up = match parent with Some p -> Some (pid, p) | None -> remote in
      Hashtbl.replace tl.rows (pid, id) (row_under tl ~orphan up name, domain)
  | Obs.Span_end { id; pid; dur_ms; attrs; _ } -> (
      match Hashtbl.find_opt tl.rows (pid, id) with
      | None -> ()
      | Some (node, domain) ->
          if forget then Hashtbl.remove tl.rows (pid, id);
          node.a_calls <- node.a_calls + 1;
          node.a_total_ms <- node.a_total_ms +. dur_ms;
          node.a_attrs <- List.fold_left merge_attr node.a_attrs attrs;
          bump tl.by_domain domain dur_ms;
          bump tl.by_pid pid dur_ms)
  | Obs.Counter { name; value; pid; _ } -> Hashtbl.replace tl.counters (pid, name) value
  | Obs.Gauge { name; value; pid; _ } -> Hashtbl.replace tl.gauges (pid, name) value
  | Obs.Histogram { name; stats; pid; _ } -> Hashtbl.replace tl.hists (pid, name) stats

(* every list below has unique keys, so this sorts by key *)
let sorted_bindings f tbl = List.sort compare (Hashtbl.fold f tbl [])
let breakdown = sorted_bindings (fun k (n, d) acc -> (k, !n, !d) :: acc)

(* Counters sum across processes (each reports its own total); gauges
   and histograms cannot, so when more than one process reported any
   event their names are qualified as [pidN/name]. *)
let of_tally tl ~roots ~remote_edges ~cross_pid_edges =
  let sums = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (_, name) v ->
      Hashtbl.replace sums name
        (match Hashtbl.find_opt sums name with Some s -> s +. v | None -> v))
    tl.counters;
  let pids = Hashtbl.create 8 in
  let saw tbl = Hashtbl.iter (fun (pid, _) _ -> Hashtbl.replace pids pid ()) tbl in
  Hashtbl.iter (fun pid _ -> Hashtbl.replace pids pid ()) tl.by_pid;
  saw tl.counters;
  saw tl.gauges;
  saw tl.hists;
  let per_process tbl =
    sorted_bindings
      (fun (pid, name) v acc ->
        ((if Hashtbl.length pids > 1 then Printf.sprintf "pid%d/%s" pid name else name), v)
        :: acc)
      tbl
  in
  let domains = breakdown tl.by_domain in
  {
    roots;
    num_spans = List.fold_left (fun acc (_, n, _) -> acc + n) 0 domains;
    counters = sorted_bindings (fun k v acc -> (k, v) :: acc) sums;
    gauges = per_process tl.gauges;
    histograms = per_process tl.hists;
    domains;
    pids = breakdown tl.by_pid;
    remote_edges;
    cross_pid_edges;
    tree = tl.root;
  }

(* Mutable shadow of [span] used during reconstruction; frozen into
   the immutable tree once every stream is fully validated. *)
type open_span = {
  o_pid : int;
  o_id : int;
  o_parent : int option;
  o_remote : (int * int) option;
  o_trace : int option;
  o_domain : int;
  o_name : string;
  mutable o_dur_ms : float;
  mutable o_attrs : (string * Obs.attr) list;
  mutable o_children : open_span list; (* reverse start order *)
  mutable o_closed : bool;
}

(* Merge any number of event streams (one per process) into a single
   forest.  Spans are keyed by (pid, id) — span-id counters are
   per-process, so the pid is what makes the key global.  Local parent
   references obey the single-stream discipline (started earlier in the
   same serialized stream); remote parent references are collected in
   pass 1 and resolved across {e all} streams in pass 2, where a
   reference that no stream satisfies is fatal — exactly the local
   dangling-parent rule lifted to the fleet.  A final reachability walk
   rejects remote-edge cycles, which pass 2's local checks cannot see.
   A valid forest is then tallied for the report, streams in order. *)
let merge_streams streams =
  let errors = ref [] in
  let by_key : (int * int, open_span) Hashtbl.t = Hashtbl.create 256 in
  let roots = ref [] in
  let pending_remote = ref [] in (* (open_span, label, index) reverse order *)
  let at label i =
    match label with
    | None -> Printf.sprintf "event %d" i
    | Some l -> Printf.sprintf "%s: event %d" l i
  in
  List.iter
    (fun (label, events) ->
      let err i fmt =
        Printf.ksprintf
          (fun m -> errors := Printf.sprintf "%s: %s" (at label i) m :: !errors)
          fmt
      in
      List.iteri
        (fun i ev ->
          match ev with
          | Obs.Span_start { name; id; parent; domain; pid; trace; remote; _ }
            ->
              if Hashtbl.mem by_key (pid, id) then
                err i "duplicate span id %d (pid %d)" id pid
              else begin
                if parent <> None && remote <> None then
                  err i "span %d (%s): both local and remote parent" id name;
                let sp =
                  {
                    o_pid = pid;
                    o_id = id;
                    o_parent = parent;
                    o_remote = remote;
                    o_trace = trace;
                    o_domain = domain;
                    o_name = name;
                    o_dur_ms = 0.0;
                    o_attrs = [];
                    o_children = [];
                    o_closed = false;
                  }
                in
                (* the sink serializes writes, so a resolvable local
                   parent has always been started by an earlier line of
                   the same stream — a forward or unknown reference (the
                   span itself included) is corruption, and it also
                   makes local parent cycles impossible in an accepted
                   trace *)
                (match (parent, remote) with
                | Some p, _ -> (
                    match Hashtbl.find_opt by_key (pid, p) with
                    | Some pn -> pn.o_children <- sp :: pn.o_children
                    | None -> err i "span %d (%s): dangling parent id %d" id name p)
                | None, Some _ -> pending_remote := (sp, label, i) :: !pending_remote
                | None, None -> roots := sp :: !roots);
                Hashtbl.add by_key (pid, id) sp
              end
          | Obs.Span_end { name; id; pid; dur_ms; attrs; _ } -> (
              match Hashtbl.find_opt by_key (pid, id) with
              | None -> err i "span_end for unknown span id %d (%s)" id name
              | Some sp when sp.o_closed ->
                  err i "span id %d (%s) ended twice" id name
              | Some sp when sp.o_name <> name ->
                  err i "span id %d ended as %S but started as %S" id name
                    sp.o_name
              | Some sp ->
                  sp.o_closed <- true;
                  sp.o_dur_ms <- dur_ms;
                  sp.o_attrs <- attrs)
          | Obs.Counter _ | Obs.Gauge _ | Obs.Histogram _ -> ())
        events)
    streams;
  Hashtbl.iter
    (fun (pid, id) sp ->
      if not sp.o_closed then
        errors :=
          Printf.sprintf "span id %d (%s, pid %d) has no span_end" id sp.o_name
            pid
          :: !errors)
    by_key;
  (* pass 2: resolve remote parent references across all streams *)
  let remote_edges = ref 0 in
  let cross_pid_edges = ref 0 in
  List.iter
    (fun (sp, label, i) ->
      let rpid, rid = Option.get sp.o_remote in
      let where = at label i in
      match Hashtbl.find_opt by_key (rpid, rid) with
      | None ->
          errors :=
            Printf.sprintf
              "%s: span %d (%s, pid %d): dangling remote parent (pid %d, span %d)"
              where sp.o_id sp.o_name sp.o_pid rpid rid
            :: !errors
      | Some pn when pn == sp ->
          errors :=
            Printf.sprintf "%s: span %d (%s): remote parent cycle" where sp.o_id
              sp.o_name
            :: !errors
      | Some pn ->
          pn.o_children <- sp :: pn.o_children;
          incr remote_edges;
          if rpid <> sp.o_pid then incr cross_pid_edges)
    (List.rev !pending_remote);
  (* remote edges can close a cycle that no local check sees (A remote
     under B, B remote under A): every member of such a ring has a
     parent, so none is a root and the walk from the roots misses all
     of them — count reachable spans and compare *)
  if !errors = [] then begin
    let rec reach sp =
      List.fold_left (fun acc c -> acc + reach c) 1 sp.o_children
    in
    let reachable = List.fold_left (fun acc sp -> acc + reach sp) 0 !roots in
    let total = Hashtbl.length by_key in
    if reachable <> total then
      errors :=
        [
          Printf.sprintf
            "%d span(s) unreachable from any root (remote parent cycle)"
            (total - reachable);
        ]
  end;
  match List.rev !errors with
  | _ :: _ as errs -> Error errs
  | [] ->
      let rec freeze sp =
        {
          pid = sp.o_pid;
          id = sp.o_id;
          parent = sp.o_parent;
          remote_parent = sp.o_remote;
          trace = sp.o_trace;
          domain = sp.o_domain;
          name = sp.o_name;
          dur_ms = sp.o_dur_ms;
          attrs = sp.o_attrs;
          (* o_children is in reverse start order; rev_map restores it
             (remote children were appended in pass 2 and so sort
             before their local siblings — ordering among children is
             cosmetic, [shape] sorts by name anyway) *)
          children = List.rev_map freeze sp.o_children;
        }
      in
      let tl = tally () in
      (* a remote parent from a later stream: make its row first *)
      let rec orphan = function
        | None -> tl.root
        | Some key ->
            let sp = Hashtbl.find by_key key in
            let up =
              match sp.o_parent with Some p -> Some (sp.o_pid, p) | None -> sp.o_remote
            in
            let row = row_under tl ~orphan up sp.o_name in
            Hashtbl.replace tl.rows key (row, sp.o_domain);
            row
      in
      List.iter (fun (_, evs) -> List.iter (feed tl ~forget:false ~orphan) evs) streams;
      Ok
        (of_tally tl
           ~roots:(List.rev_map freeze !roots)
           ~remote_edges:!remote_edges ~cross_pid_edges:!cross_pid_edges)

let of_events events = merge_streams [ (None, events) ]
let merge streams = merge_streams (List.map (fun (l, e) -> (Some l, e)) streams)

let events_of_file path =
  let ic = open_in path in
  let events = ref [] in
  let errors = ref [] in
  let lineno = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       if String.trim line <> "" then
         match Json.of_string line with
         | Error msg ->
             errors := Printf.sprintf "line %d: malformed JSON: %s" !lineno msg :: !errors
         | Ok j -> (
             match Obs.event_of_json j with
             | Error msg -> errors := Printf.sprintf "line %d: %s" !lineno msg :: !errors
             | Ok ev -> events := ev :: !events)
     done
   with End_of_file -> close_in ic);
  (List.rev !events, List.rev !errors)

let load path =
  match events_of_file path with
  | _, (_ :: _ as errs) -> Error errs
  | events, [] -> of_events events

let load_dir dir =
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
    |> List.sort String.compare
  in
  if files = [] then Error [ Printf.sprintf "no *.jsonl trace files in %s" dir ]
  else begin
    let errors = ref [] in
    let streams =
      List.map
        (fun f ->
          let events, errs = events_of_file (Filename.concat dir f) in
          List.iter (fun e -> errors := (f ^ ": " ^ e) :: !errors) errs;
          (f, events))
        files
    in
    match List.rev !errors with
    | _ :: _ as errs -> Error errs
    | [] -> merge streams
  end

(* --- shape --------------------------------------------------------------- *)

let shape t =
  let buf = Buffer.create 256 in
  let by_name l =
    List.sort (fun a b -> String.compare a.a_name b.a_name) l
  in
  let rec go indent n =
    Buffer.add_string buf
      (Printf.sprintf "%s%s x%d\n" indent n.a_name n.a_calls);
    List.iter (go (indent ^ "  ")) (by_name n.a_children)
  in
  List.iter (go "") (by_name t.tree.a_children);
  Buffer.contents buf

(* --- profiling --------------------------------------------------------- *)

(* Self time: a span's duration minus the time accounted to its
   children.  Children that overlap their parent's end (cross-domain
   futures awaited later) could push the sum past the parent; clamp at
   zero so totals never go negative. *)
let span_self_ms sp =
  let children_ms =
    List.fold_left (fun acc c -> acc +. c.dur_ms) 0.0 sp.children
  in
  Float.max 0.0 (sp.dur_ms -. children_ms)

(* In a merged multi-process forest the pid is folded into the span
   name (self-time rows) and the stack root (folded stacks): router and
   shard frames with the same name must not collide, and every stack
   begins at some process's root, so qualifying roots qualifies every
   path.  Single-process traces render exactly as before. *)
let multi_pid t = List.length t.pids > 1

let self_times t =
  let multi = multi_pid t in
  let tbl : (string, int ref * float ref) Hashtbl.t = Hashtbl.create 64 in
  let rec go sp =
    let name =
      if multi then Printf.sprintf "pid%d/%s" sp.pid sp.name else sp.name
    in
    let calls, self =
      match Hashtbl.find_opt tbl name with
      | Some cell -> cell
      | None ->
          let cell = (ref 0, ref 0.0) in
          Hashtbl.add tbl name cell;
          cell
    in
    incr calls;
    self := !self +. span_self_ms sp;
    List.iter go sp.children
  in
  List.iter go t.roots;
  Hashtbl.fold (fun name (calls, self) acc -> (name, !calls, !self) :: acc) tbl []
  |> List.sort (fun (na, _, sa) (nb, _, sb) ->
         match Float.compare sb sa with 0 -> String.compare na nb | c -> c)

let folded t =
  let multi = multi_pid t in
  let tbl : (string, float ref) Hashtbl.t = Hashtbl.create 64 in
  let rec go prefix sp =
    let path =
      if prefix = "" then
        if multi then Printf.sprintf "pid%d/%s" sp.pid sp.name else sp.name
      else prefix ^ ";" ^ sp.name
    in
    let cell =
      match Hashtbl.find_opt tbl path with
      | Some r -> r
      | None ->
          let r = ref 0.0 in
          Hashtbl.add tbl path r;
          r
    in
    cell := !cell +. span_self_ms sp;
    List.iter (go path) sp.children
  in
  List.iter (go "") t.roots;
  Hashtbl.fold (fun path self acc -> (path, !self) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* --- the report ---------------------------------------------------------- *)

let dur_str ms =
  if ms >= 1000.0 then Printf.sprintf "%.2fs" (ms /. 1000.0)
  else if ms >= 1.0 then Printf.sprintf "%.1fms" ms
  else Printf.sprintf "%.3fms" ms

let attr_str = function
  | Obs.Int i -> string_of_int i
  | Obs.Float x ->
      if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
      else Printf.sprintf "%.3g" x
  | Obs.Bool b -> string_of_bool b
  | Obs.Str s -> s

let render oc t =
  let section title =
    Printf.fprintf oc "-- %s %s\n" title (String.make (61 - String.length title) '-')
  in
  Printf.fprintf oc "-- span forest (%d spans, %d domain%s) %s\n" t.num_spans
    (List.length t.domains)
    (if List.length t.domains = 1 then "" else "s")
    (String.make 30 '-');
  let rec print indent n =
    let calls = if n.a_calls > 1 then Printf.sprintf " x%d" n.a_calls else "" in
    let attrs =
      match List.rev n.a_attrs with
      | [] -> ""
      | l ->
          "  {"
          ^ String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ attr_str v) l)
          ^ "}"
    in
    Printf.fprintf oc "%s%s%s  %s%s\n" indent n.a_name calls
      (dur_str n.a_total_ms) attrs;
    List.iter (print (indent ^ "  ")) (List.rev n.a_children)
  in
  List.iter (print "") (List.rev t.tree.a_children);
  let breakdown title label rows =
    section title;
    List.iter
      (fun (k, n, total) ->
        Printf.fprintf oc "%s %6d spans  %10s total\n" (label k) n (dur_str total))
      rows
  in
  if List.length t.domains > 1 then
    breakdown "per domain" (Printf.sprintf "domain %-3d") t.domains;
  if List.length t.pids > 1 then begin
    breakdown "per process" (Printf.sprintf "pid %-7d") t.pids;
    Printf.fprintf oc "cross-process parent edges: %d\n" t.cross_pid_edges
  end;
  if t.histograms <> [] then begin
    section "latency";
    Printf.fprintf oc "%-32s %8s %9s %9s %9s %9s\n" "histogram" "count" "p50"
      "p90" "p99" "max";
    List.iter
      (fun (name, s) ->
        Printf.fprintf oc "%-32s %8d %9s %9s %9s %9s\n" name s.Obs.count
          (dur_str s.Obs.p50) (dur_str s.Obs.p90) (dur_str s.Obs.p99)
          (dur_str s.Obs.max))
      t.histograms
  end;
  let values title = function
    | [] -> ()
    | l ->
        section title;
        List.iter
          (fun (name, v) ->
            let pretty =
              if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
              else Printf.sprintf "%.3f" v
            in
            Printf.fprintf oc "%-40s %14s\n" name pretty)
          l
  in
  values "counters" t.counters;
  values "gauges" t.gauges

(* The live sink keeps only the spans still open, so its memory is the
   tally's, not the stream's.  A span whose parent has already ended
   (or lives in another process) has no row to hang under and is
   tallied at the top level; the replay nests it. *)
let live ?(oc = stdout) () =
  let tl = tally () in
  let unprinted = ref false in
  let emit ev =
    unprinted := true;
    feed tl ~forget:true ~orphan:(fun _ -> tl.root) ev
  in
  let flush () =
    if !unprinted then begin
      unprinted := false;
      (* no forest: [render] reads only the tally *)
      render oc (of_tally tl ~roots:[] ~remote_edges:0 ~cross_pid_edges:0);
      Stdlib.flush oc
    end
  in
  { Obs.emit; flush }
