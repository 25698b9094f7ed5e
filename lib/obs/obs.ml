type attr = Int of int | Float of float | Bool of bool | Str of string

type hist_stats = {
  count : int;
  p50 : float;
  p90 : float;
  p99 : float;
  max : float;
}

type event =
  | Span_start of {
      ts : float;
      name : string;
      id : int;
      parent : int option;
      domain : int;
      pid : int;
      trace : int option;
      remote : (int * int) option;
    }
  | Span_end of {
      ts : float;
      name : string;
      id : int;
      parent : int option;
      domain : int;
      pid : int;
      trace : int option;
      remote : (int * int) option;
      dur_ms : float;
      attrs : (string * attr) list;
    }
  | Counter of { ts : float; name : string; value : float; pid : int }
  | Gauge of { ts : float; name : string; value : float; pid : int }
  | Histogram of { ts : float; name : string; stats : hist_stats; pid : int }

type sink = { emit : event -> unit; flush : unit -> unit }

let null = { emit = (fun _ -> ()); flush = (fun () -> ()) }

(* The sink cell is atomic so a sink can be installed (or tee'd onto a
   live one) from any domain at any time; [enabled] stays a plain
   lock-free load + physical equality check. *)
let current : sink Atomic.t = Atomic.make null
let set_sink s = Atomic.set current s
let sink () = Atomic.get current
let enabled () = Atomic.get current != null

let now () = Unix.gettimeofday ()

(* Stamped on every emitted event (schema v3).  Read once: processes in
   this codebase never fork without exec'ing, so the value cannot go
   stale. *)
let self_pid = Unix.getpid ()

(* Monotonic clock (CLOCK_MONOTONIC), in seconds.  Used for every
   duration and deadline in the substrate: wall-clock time
   (gettimeofday) can jump backwards under NTP adjustment, which would
   corrupt timeout bookkeeping mid-count. *)
external monotonic_s : unit -> (float[@unboxed])
  = "mcml_obs_monotonic_s_byte" "mcml_obs_monotonic_s"
[@@noalloc]

(* One lock serializes counter/histogram mutation and sink emission.
   The layer is called from worker domains once an Mcml_exec pool is in
   play; sinks (a shared Buffer + channel, the live report's
   accumulator) and the metric tables are unsynchronized otherwise.  Lock
   ordering: this lock is a leaf — never call back into user code
   while holding it (built-in sinks qualify: they touch no Obs API). *)
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  match f () with
  | v ->
      Mutex.unlock lock;
      v
  | exception e ->
      Mutex.unlock lock;
      raise e

(* --- histograms -------------------------------------------------------- *)

module Histogram = struct
  let lo = 1e-6
  let growth = 2.0 ** 0.25
  let bucket_count = 512
  let log_growth = Float.log growth

  type t = {
    buckets : int array;
    mutable n : int;
    mutable vmax : float;
    mutable vsum : float;
  }

  let create () =
    { buckets = Array.make bucket_count 0; n = 0; vmax = neg_infinity; vsum = 0.0 }

  let bucket_of v =
    if (not (Float.is_finite v)) || v <= lo then 0
    else
      let i = int_of_float (Float.ceil (Float.log (v /. lo) /. log_growth)) in
      if i < 0 then 0 else if i >= bucket_count then bucket_count - 1 else i

  let bucket_upper i = lo *. (growth ** float_of_int i)
  let bucket_lower i = if i <= 0 then 0.0 else bucket_upper (i - 1)

  let observe t v =
    t.buckets.(bucket_of v) <- t.buckets.(bucket_of v) + 1;
    t.n <- t.n + 1;
    if Float.is_finite v && v > 0.0 then t.vsum <- t.vsum +. v;
    if v > t.vmax then t.vmax <- v

  let count t = t.n
  let sum t = t.vsum
  let max_value t = t.vmax
  let bucket_count_at t i = t.buckets.(i)

  (* Rebuild a histogram from its serialized form (sparse occupied
     buckets plus the side-tracked count/sum/max) — the inverse of
     walking [bucket_count_at] over the occupied indices.  Used by the
     metrics snapshot wire codec so fleet-wide bucket-wise merging sees
     full-fidelity shard histograms, not lossy percentile summaries. *)
  let of_raw ~buckets ~count ~sum ~max =
    if count < 0 then invalid_arg "Histogram.of_raw: negative count";
    let t = create () in
    List.iter
      (fun (i, c) ->
        if i < 0 || i >= bucket_count || c < 0 then
          invalid_arg "Histogram.of_raw: bucket out of range";
        t.buckets.(i) <- t.buckets.(i) + c)
      buckets;
    t.n <- count;
    t.vsum <- sum;
    t.vmax <- max;
    t

  let copy t =
    { buckets = Array.copy t.buckets; n = t.n; vmax = t.vmax; vsum = t.vsum }

  let merge a b =
    {
      buckets = Array.init bucket_count (fun i -> a.buckets.(i) + b.buckets.(i));
      n = a.n + b.n;
      vmax = Float.max a.vmax b.vmax;
      vsum = a.vsum +. b.vsum;
    }

  (* The window's max is [later.vmax] only when that grew; otherwise it
     was observed before the window, and the window's own max is known
     only up to the upper edge of its highest occupied bucket. *)
  let diff later earlier =
    let buckets =
      Array.init bucket_count (fun i -> max 0 (later.buckets.(i) - earlier.buckets.(i)))
    in
    let rec top i =
      if i < 0 then neg_infinity else if buckets.(i) > 0 then bucket_upper i else top (i - 1)
    in
    {
      buckets;
      n = max 0 (later.n - earlier.n);
      vmax =
        (if later.vmax > earlier.vmax then later.vmax
         else Float.min later.vmax (top (bucket_count - 1)));
      vsum = Float.max 0.0 (later.vsum -. earlier.vsum);
    }

  (* Linear interpolation inside the containing bucket: rank r = p*n
     observations lie below the answer; walk the cumulative counts to
     the bucket holding rank r and place the answer proportionally
     between its edges.  Clamped to the exact observed max so p=1.0
     (and high percentiles landing in the top occupied bucket) never
     over-report. *)
  let percentile t p =
    if t.n = 0 then 0.0
    else begin
      let r = max 1 (min t.n (int_of_float (Float.ceil (p *. float_of_int t.n)))) in
      let i = ref 0 and cum = ref 0 in
      while !cum + t.buckets.(!i) < r && !i < bucket_count - 1 do
        cum := !cum + t.buckets.(!i);
        incr i
      done;
      let inside = t.buckets.(!i) in
      let frac =
        if inside = 0 then 1.0
        else float_of_int (r - !cum) /. float_of_int inside
      in
      let v = bucket_lower !i +. (frac *. (bucket_upper !i -. bucket_lower !i)) in
      Float.min v t.vmax
    end

  let stats t =
    if t.n = 0 then None
    else
      Some
        {
          count = t.n;
          p50 = percentile t 0.5;
          p90 = percentile t 0.9;
          p99 = percentile t 0.99;
          max = t.vmax;
        }
end

(* --- rendering -------------------------------------------------------- *)

let attr_to_json = function
  | Int i -> Json.Int i
  | Float x -> Json.Float x
  | Bool b -> Json.Bool b
  | Str s -> Json.Str s

let span_id_fields id parent domain pid trace remote =
  ("id", Json.Int id)
  :: (match parent with Some p -> [ ("parent", Json.Int p) ] | None -> [])
  @ [ ("domain", Json.Int domain); ("pid", Json.Int pid) ]
  @ (match trace with Some t -> [ ("trace", Json.Int t) ] | None -> [])
  @ (match remote with
    | Some (rpid, rid) ->
        [ ("remote", Json.Obj [ ("pid", Json.Int rpid); ("id", Json.Int rid) ]) ]
    | None -> [])

let value_event_json kind ts name value pid =
  Json.Obj
    [
      ("ts", Json.Float ts);
      ("kind", Json.Str kind);
      ("name", Json.Str name);
      ("value", Json.Float value);
      ("pid", Json.Int pid);
    ]

let event_to_json = function
  | Span_start { ts; name; id; parent; domain; pid; trace; remote } ->
      Json.Obj
        ([
           ("ts", Json.Float ts);
           ("kind", Json.Str "span_start");
           ("name", Json.Str name);
         ]
        @ span_id_fields id parent domain pid trace remote)
  | Span_end { ts; name; id; parent; domain; pid; trace; remote; dur_ms; attrs }
    ->
      Json.Obj
        ([
           ("ts", Json.Float ts);
           ("kind", Json.Str "span_end");
           ("name", Json.Str name);
         ]
        @ span_id_fields id parent domain pid trace remote
        @ [
            ("dur_ms", Json.Float dur_ms);
            ("attrs", Json.Obj (List.map (fun (k, v) -> (k, attr_to_json v)) attrs));
          ])
  | Counter { ts; name; value; pid } -> value_event_json "counter" ts name value pid
  | Gauge { ts; name; value; pid } -> value_event_json "gauge" ts name value pid
  | Histogram { ts; name; stats; pid } ->
      Json.Obj
        [
          ("ts", Json.Float ts);
          ("kind", Json.Str "histogram");
          ("name", Json.Str name);
          ("count", Json.Int stats.count);
          ("p50_ms", Json.Float stats.p50);
          ("p90_ms", Json.Float stats.p90);
          ("p99_ms", Json.Float stats.p99);
          ("max_ms", Json.Float stats.max);
          ("pid", Json.Int pid);
        ]

let event_of_json j =
  let ( let* ) = Result.bind in
  let field name =
    match Json.member name j with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing field %S" name)
  in
  let float_field name =
    let* v = field name in
    match Json.to_float_opt v with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "field %S is not a number" name)
  in
  let int_field name =
    let* v = field name in
    match v with
    | Json.Int i -> Ok i
    | _ -> Error (Printf.sprintf "field %S is not an integer" name)
  in
  let str_field name =
    let* v = field name in
    match v with
    | Json.Str s -> Ok s
    | _ -> Error (Printf.sprintf "field %S is not a string" name)
  in
  let parent_field () =
    match Json.member "parent" j with
    | None -> Ok None
    | Some (Json.Int p) -> Ok (Some p)
    | Some _ -> Error "field \"parent\" is not an integer"
  in
  let trace_field () =
    match Json.member "trace" j with
    | None -> Ok None
    | Some (Json.Int t) -> Ok (Some t)
    | Some _ -> Error "field \"trace\" is not an integer"
  in
  let remote_field () =
    match Json.member "remote" j with
    | None -> Ok None
    | Some (Json.Obj _ as o) -> (
        match (Json.member "pid" o, Json.member "id" o) with
        | Some (Json.Int rpid), Some (Json.Int rid) -> Ok (Some (rpid, rid))
        | _ -> Error "field \"remote\" must carry integer \"pid\" and \"id\"")
    | Some _ -> Error "field \"remote\" is not an object"
  in
  let attr_of_json = function
    | Json.Int i -> Ok (Int i)
    | Json.Float f -> Ok (Float f)
    | Json.Bool b -> Ok (Bool b)
    | Json.Str s -> Ok (Str s)
    | _ -> Error "attr value is not a scalar"
  in
  let* ts = float_field "ts" in
  let* kind = str_field "kind" in
  let* name = str_field "name" in
  match kind with
  | "span_start" ->
      let* id = int_field "id" in
      let* parent = parent_field () in
      let* domain = int_field "domain" in
      let* pid = int_field "pid" in
      let* trace = trace_field () in
      let* remote = remote_field () in
      Ok (Span_start { ts; name; id; parent; domain; pid; trace; remote })
  | "span_end" ->
      let* id = int_field "id" in
      let* parent = parent_field () in
      let* domain = int_field "domain" in
      let* pid = int_field "pid" in
      let* trace = trace_field () in
      let* remote = remote_field () in
      let* dur_ms = float_field "dur_ms" in
      let* attrs =
        match Json.member "attrs" j with
        | None -> Ok []
        | Some (Json.Obj kvs) ->
            List.fold_left
              (fun acc (k, v) ->
                let* acc = acc in
                let* a = attr_of_json v in
                Ok ((k, a) :: acc))
              (Ok []) kvs
            |> Result.map List.rev
        | Some _ -> Error "field \"attrs\" is not an object"
      in
      Ok
        (Span_end
           { ts; name; id; parent; domain; pid; trace; remote; dur_ms; attrs })
  | "counter" ->
      let* value = float_field "value" in
      let* pid = int_field "pid" in
      Ok (Counter { ts; name; value; pid })
  | "gauge" ->
      let* value = float_field "value" in
      let* pid = int_field "pid" in
      Ok (Gauge { ts; name; value; pid })
  | "histogram" ->
      let* count = int_field "count" in
      let* p50 = float_field "p50_ms" in
      let* p90 = float_field "p90_ms" in
      let* p99 = float_field "p99_ms" in
      let* max = float_field "max_ms" in
      let* pid = int_field "pid" in
      Ok (Histogram { ts; name; stats = { count; p50; p90; p99; max }; pid })
  | k -> Error (Printf.sprintf "unknown event kind %S" k)

(* --- counters and gauges ---------------------------------------------- *)

(* Monotonic counters and point-in-time gauges live in separate tables
   so a snapshot can tell the kinds apart (OpenMetrics exposition emits
   [counter] vs [gauge] TYPE lines). *)
let counter_table : (string, float ref) Hashtbl.t = Hashtbl.create 64
let gauge_table : (string, float ref) Hashtbl.t = Hashtbl.create 32

let cell_in table name =
  match Hashtbl.find_opt table name with
  | Some r -> r
  | None ->
      let r = ref 0.0 in
      Hashtbl.add table name r;
      r

let cell name = cell_in counter_table name

let addf name x =
  if enabled () then locked (fun () -> let r = cell name in r := !r +. x)

let add name n =
  if enabled () then
    locked (fun () -> let r = cell name in r := !r +. float_of_int n)

let gauge_set name x = locked (fun () -> cell_in gauge_table name := x)
let gauge name x = if enabled () then gauge_set name x

let counter_value name =
  locked (fun () ->
      match Hashtbl.find_opt counter_table name with
      | Some r -> !r
      | None -> (
          match Hashtbl.find_opt gauge_table name with
          | Some r -> !r
          | None -> 0.0))

let fold_table table acc =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) table acc

let sorted_by_name l = List.sort (fun (a, _) (b, _) -> String.compare a b) l

let monotonic_counters () =
  locked (fun () -> fold_table counter_table []) |> sorted_by_name

let gauges () = locked (fun () -> fold_table gauge_table []) |> sorted_by_name

let hist_table : (string, Histogram.t) Hashtbl.t = Hashtbl.create 32

let hist_cell name =
  match Hashtbl.find_opt hist_table name with
  | Some h -> h
  | None ->
      let h = Histogram.create () in
      Hashtbl.add hist_table name h;
      h

(* unlocked; callers hold [lock] *)
let observe_unlocked name v = Histogram.observe (hist_cell name) v

let observe name v =
  if enabled () then locked (fun () -> observe_unlocked name v)

let histogram_stats name =
  locked (fun () ->
      Option.bind (Hashtbl.find_opt hist_table name) Histogram.stats)

let histograms () =
  locked (fun () ->
      Hashtbl.fold
        (fun k h acc ->
          match Histogram.stats h with Some s -> (k, s) :: acc | None -> acc)
        hist_table [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let histogram_copies () =
  locked (fun () ->
      Hashtbl.fold (fun k h acc -> (k, Histogram.copy h) :: acc) hist_table [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* values as of the last [flush], so repeated flushes (an explicit one
   plus the at_exit one, say) don't re-emit unchanged entries; keyed by
   (is a gauge, name) *)
let flushed_values : (bool * string, float) Hashtbl.t = Hashtbl.create 64
let flushed_hist_counts : (string, int) Hashtbl.t = Hashtbl.create 32

let reset_counters () =
  locked (fun () ->
      Hashtbl.reset counter_table;
      Hashtbl.reset gauge_table;
      Hashtbl.reset hist_table;
      Hashtbl.reset flushed_values;
      Hashtbl.reset flushed_hist_counts)

(* --- spans ------------------------------------------------------------ *)

(* Fresh process-unique span ids; id 0 is never allocated, so 0 can
   serve as a sentinel in serialized forms if ever needed. *)
let next_span_id = Atomic.make 1

(* The current span of each systhread — the parent of the next [start]
   on that thread — plus the active trace id and, at a process boundary,
   the remote parent a context was rehydrated from.  [cx_remote] is
   consumed by the first [start] under the context ([cx_span = None]):
   that span records the cross-process parent edge, and its descendants
   parent locally as usual. *)
type context = {
  cx_span : int option;
  cx_trace : int option;
  cx_remote : (int * int) option;
}

let empty_context = { cx_span = None; cx_trace = None; cx_remote = None }

(* Keyed by [Thread.id], not held in [Domain.DLS]: a server's connection
   threads share one domain, and a domain-wide slot let them parent each
   other's spans.  Guarded by [lock]; a thread whose context returns to
   empty drops its entry, so finished threads leave nothing behind. *)
module Threads = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash t = t land max_int
end)

let contexts : context Threads.t = Threads.create 16

(* unlocked; callers hold [lock] *)
let get_context () =
  match Threads.find_opt contexts (Thread.id (Thread.self ())) with
  | Some c -> c
  | None -> empty_context

let set_context c =
  let k = Thread.id (Thread.self ()) in
  match c with
  | { cx_span = None; cx_trace = None; cx_remote = None } -> Threads.remove contexts k
  | _ -> Threads.replace contexts k c

let current_context () =
  if enabled () then locked get_context else empty_context

let with_context ctx f =
  if not (enabled ()) then f ()
  else begin
    let saved =
      locked (fun () ->
          let c = get_context () in
          set_context ctx;
          c)
    in
    match f () with
    | v ->
        locked (fun () -> set_context saved);
        v
    | exception e ->
        locked (fun () -> set_context saved);
        raise e
  end

let remote_context ~trace_id ~pid ~span =
  { cx_span = None; cx_trace = Some trace_id; cx_remote = Some (pid, span) }

(* Positive trace ids: a splitmix64 finalizer over (time-of-first-
   use, pid, counter), so ids from concurrently started processes don't
   collide the way a bare counter would.  Not global [Random] — trace id
   generation must not perturb any seeded experiment. *)
let trace_id_counter = Atomic.make 0

let trace_id_seed =
  lazy
    (Int64.logxor
       (Int64.bits_of_float (Unix.gettimeofday ()))
       (Int64.of_int (self_pid * 0x9E3779B9)))

let splitmix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let fresh_trace_id () =
  let n = Atomic.fetch_and_add trace_id_counter 1 in
  let z =
    splitmix64
      (Int64.add (Lazy.force trace_id_seed) (Int64.of_int ((n * 2) + 1)))
  in
  (* the low 62 bits: a non-negative OCaml int on every 64-bit host *)
  let id = Int64.to_int (Int64.logand z 0x3FFF_FFFF_FFFF_FFFFL) in
  if id = 0 then 1 else id

let with_new_trace f =
  if not (enabled ()) then f ()
  else
    let c = current_context () in
    if c.cx_trace <> None then f ()
    else with_context { c with cx_trace = Some (fresh_trace_id ()) } f

let propagation () =
  if not (enabled ()) then None
  else
    let c = current_context () in
    match (c.cx_trace, c.cx_span) with
    | Some tid, Some span -> Some (tid, self_pid, span)
    | _ -> None

(* [sp_t0] is wall-clock (for the event timestamp); [sp_m0] is
   monotonic, so the reported duration is immune to clock steps.
   [sp_ctx] is the full context at [start], restored by [finish]. *)
type span = {
  sp_name : string;
  sp_t0 : float;
  sp_m0 : float;
  sp_id : int;
  sp_ctx : context;
  sp_remote : (int * int) option;
  sp_live : bool;
}

let dummy_span =
  {
    sp_name = "";
    sp_t0 = 0.0;
    sp_m0 = 0.0;
    sp_id = 0;
    sp_ctx = empty_context;
    sp_remote = None;
    sp_live = false;
  }

let start name =
  if not (enabled ()) then dummy_span
  else begin
    let t0 = now () in
    let m0 = monotonic_s () in
    let id = Atomic.fetch_and_add next_span_id 1 in
    let domain = (Domain.self () :> int) in
    let ctx, remote =
      locked (fun () ->
          let ctx = get_context () in
          let parent = ctx.cx_span in
          let remote = if parent = None then ctx.cx_remote else None in
          set_context { ctx with cx_span = Some id };
          (sink ()).emit
            (Span_start
               {
                 ts = t0;
                 name;
                 id;
                 parent;
                 domain;
                 pid = self_pid;
                 trace = ctx.cx_trace;
                 remote;
               });
          (ctx, remote))
    in
    {
      sp_name = name;
      sp_t0 = t0;
      sp_m0 = m0;
      sp_id = id;
      sp_ctx = ctx;
      sp_remote = remote;
      sp_live = true;
    }
  end

let finish ?(attrs = []) sp =
  if sp.sp_live then begin
    let t1 = now () in
    (* clock granularity can round a sub-microsecond span to zero;
       report a floor instead so rates stay finite *)
    let dur_ms = Float.max ((monotonic_s () -. sp.sp_m0) *. 1000.0) 1e-6 in
    let domain = (Domain.self () :> int) in
    locked (fun () ->
        set_context sp.sp_ctx;
        observe_unlocked sp.sp_name dur_ms;
        (sink ()).emit
          (Span_end
             {
               ts = t1;
               name = sp.sp_name;
               id = sp.sp_id;
               parent = sp.sp_ctx.cx_span;
               domain;
               pid = self_pid;
               trace = sp.sp_ctx.cx_trace;
               remote = sp.sp_remote;
               dur_ms;
               attrs;
             }))
  end

let with_span ?attrs name f =
  if not (enabled ()) then f ()
  else begin
    let sp = start name in
    match f () with
    | v ->
        finish ?attrs:(Option.map (fun g -> g ()) attrs) sp;
        v
    | exception e ->
        finish ~attrs:[ ("outcome", Str "raised") ] sp;
        raise e
  end

let flush () =
  let s = sink () in
  if s != null then
    locked (fun () ->
        let ts = now () in
        let emit_changed gauge table =
          List.iter
            (fun (name, value) ->
              if Hashtbl.find_opt flushed_values (gauge, name) <> Some value then begin
                Hashtbl.replace flushed_values (gauge, name) value;
                s.emit
                  (if gauge then Gauge { ts; name; value; pid = self_pid }
                   else Counter { ts; name; value; pid = self_pid })
              end)
            (sorted_by_name (fold_table table []))
        in
        emit_changed false counter_table;
        emit_changed true gauge_table;
        let hists =
          Hashtbl.fold (fun k h acc -> (k, h) :: acc) hist_table []
          |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        in
        List.iter
          (fun (name, h) ->
            match Histogram.stats h with
            | Some stats
              when Hashtbl.find_opt flushed_hist_counts name <> Some stats.count
              ->
                Hashtbl.replace flushed_hist_counts name stats.count;
                s.emit (Histogram { ts; name; stats; pid = self_pid })
            | _ -> ())
          hists;
        s.flush ())

(* --- sinks ------------------------------------------------------------ *)

let jsonl path =
  let oc = open_out path in
  at_exit (fun () -> try close_out oc with _ -> ());
  let buf = Buffer.create 256 in
  {
    emit =
      (fun ev ->
        Buffer.clear buf;
        Json.to_buffer buf (event_to_json ev);
        Buffer.add_char buf '\n';
        Buffer.output_buffer oc buf);
    flush = (fun () -> Stdlib.flush oc);
  }

let stats_only () = { emit = (fun _ -> ()); flush = (fun () -> ()) }

let tee a b =
  {
    emit =
      (fun ev ->
        a.emit ev;
        b.emit ev);
    flush =
      (fun () ->
        a.flush ();
        b.flush ());
  }
