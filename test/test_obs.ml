(* Tests for the telemetry layer: span nesting, counters, the sink
   contract (null/jsonl/stats_only/live), and the JSON printer/parser. *)

open Mcml_obs

let check = Alcotest.check
let floatc = Alcotest.float 1e-9

(* The layer is global state; every test starts and ends clean. *)
let with_clean_obs f =
  Obs.set_sink Obs.null;
  Obs.reset_counters ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_sink Obs.null;
      Obs.reset_counters ())
    f

let recording () =
  let events = ref [] in
  let sink = { Obs.emit = (fun e -> events := e :: !events); flush = (fun () -> ()) } in
  (sink, events)

(* --- spans ------------------------------------------------------------------ *)

let span_nesting () =
  with_clean_obs @@ fun () ->
  let sink, events = recording () in
  Obs.set_sink sink;
  let outer = Obs.start "outer" in
  let inner = Obs.start "inner" in
  Obs.finish inner ~attrs:[ ("k", Obs.Int 1) ];
  Obs.finish outer;
  match List.rev !events with
  | [
   Obs.Span_start { name = "outer"; id = oid; parent = None; domain = d0; _ };
   Obs.Span_start { name = "inner"; id = iid; parent = Some ipar; domain = d1; _ };
   Obs.Span_end { name = "inner"; id = iid'; dur_ms = d_in; attrs; _ };
   Obs.Span_end { name = "outer"; id = oid'; parent = None; dur_ms = d_out; _ };
  ] ->
      check Alcotest.bool "ids are distinct" true (oid <> iid);
      check Alcotest.int "inner parents under outer" oid ipar;
      check Alcotest.int "inner end carries its id" iid iid';
      check Alcotest.int "outer end carries its id" oid oid';
      check Alcotest.int "same domain" d0 d1;
      check Alcotest.int "the test's own domain" (Domain.self () :> int) d0;
      check Alcotest.bool "inner duration positive" true (d_in > 0.0);
      check Alcotest.bool "outer >= inner" true (d_out >= d_in);
      check Alcotest.bool "end carries attrs" true (List.mem_assoc "k" attrs)
  | evs -> Alcotest.failf "unexpected event stream (%d events)" (List.length evs)

let span_context_capture () =
  (* with_context reinstates a captured context: a span started under
     it parents under the capturing span, not under the current one *)
  with_clean_obs @@ fun () ->
  let sink, events = recording () in
  Obs.set_sink sink;
  let a = Obs.start "a" in
  let ctx = Obs.current_context () in
  Obs.finish a;
  let b = Obs.start "b" in
  Obs.with_context ctx (fun () ->
      let c = Obs.start "c" in
      Obs.finish c);
  (* context restored: d parents under b *)
  let d = Obs.start "d" in
  Obs.finish d;
  Obs.finish b;
  let starts =
    List.filter_map
      (function
        | Obs.Span_start { name; id; parent; _ } -> Some (name, id, parent)
        | _ -> None)
      (List.rev !events)
  in
  let id_of n =
    match List.find_opt (fun (name, _, _) -> name = n) starts with
    | Some (_, id, _) -> id
    | None -> Alcotest.failf "no start for %s" n
  in
  let parent_of n =
    match List.find_opt (fun (name, _, _) -> name = n) starts with
    | Some (_, _, p) -> p
    | None -> Alcotest.failf "no start for %s" n
  in
  check Alcotest.(option int) "c parents under a (captured)" (Some (id_of "a")) (parent_of "c");
  check Alcotest.(option int) "d parents under b (restored)" (Some (id_of "b")) (parent_of "d")

let span_context_per_thread () =
  (* two systhreads of one domain, as a server's connection threads:
     A opens [a] and blocks, B opens [b] and blocks, then A opens a
     child — which must parent under [a], not under B's [b] *)
  with_clean_obs @@ fun () ->
  let sink, events = recording () in
  Obs.set_sink sink;
  let m = Mutex.create () and cv = Condition.create () and step = ref 0 in
  let await_step n =
    Mutex.lock m;
    while !step < n do
      Condition.wait cv m
    done;
    Mutex.unlock m
  in
  let reach n =
    Mutex.lock m;
    step := n;
    Condition.broadcast cv;
    Mutex.unlock m
  in
  let thread_a =
    Thread.create
      (fun () ->
        let a = Obs.start "a" in
        reach 1;
        await_step 2;
        Obs.finish (Obs.start "child");
        Obs.finish a;
        reach 3)
      ()
  in
  let thread_b =
    Thread.create
      (fun () ->
        await_step 1;
        let b = Obs.start "b" in
        reach 2;
        await_step 3;
        Obs.finish b)
      ()
  in
  Thread.join thread_a;
  Thread.join thread_b;
  let start_of n =
    List.find_map
      (function
        | Obs.Span_start { name; id; parent; _ } when name = n -> Some (id, parent)
        | _ -> None)
      !events
    |> function
    | Some s -> s
    | None -> Alcotest.failf "no start for %s" n
  in
  let a, a_parent = start_of "a" and _, b_parent = start_of "b" in
  check Alcotest.(option int) "child parents under a" (Some a) (snd (start_of "child"));
  check Alcotest.(option int) "a is a root" None a_parent;
  check Alcotest.(option int) "b is a root" None b_parent

let set_sink_after_domains () =
  (* the sink cell is atomic: installing (and tee-ing) a sink while
     another domain is emitting must be safe and lose no totals *)
  with_clean_obs @@ fun () ->
  Obs.set_sink (Obs.stats_only ());
  let worker =
    Domain.spawn (fun () ->
        for _ = 1 to 1000 do
          Obs.add "cross.domain" 1
        done)
  in
  let sink, _events = recording () in
  Obs.set_sink (Obs.tee (Obs.sink ()) sink);
  Domain.join worker;
  check (Alcotest.float 1e-9) "no lost increments" 1000.0
    (Obs.counter_value "cross.domain")

let with_span_on_raise () =
  with_clean_obs @@ fun () ->
  let sink, events = recording () in
  Obs.set_sink sink;
  (try Obs.with_span "boom" (fun () -> failwith "no") with Failure _ -> ());
  match !events with
  | Obs.Span_end { name = "boom"; attrs; _ } :: _ ->
      check Alcotest.bool "outcome=raised recorded" true
        (List.assoc_opt "outcome" attrs = Some (Obs.Str "raised"))
  | _ -> Alcotest.fail "expected a span end after the exception"

(* --- counters --------------------------------------------------------------- *)

let counters_accumulate () =
  with_clean_obs @@ fun () ->
  Obs.set_sink (Obs.stats_only ());
  Obs.add "a" 2;
  Obs.add "a" 3;
  Obs.addf "b" 0.5;
  Obs.gauge "g" 7.0;
  Obs.gauge "g" 9.0;
  check floatc "counter sums" 5.0 (Obs.counter_value "a");
  check floatc "float counter" 0.5 (Obs.counter_value "b");
  check floatc "gauge overwrites" 9.0 (Obs.counter_value "g");
  check
    Alcotest.(list (pair string (float 1e-9)))
    "snapshot sorted"
    [ ("a", 5.0); ("b", 0.5) ]
    (Obs.monotonic_counters ());
  Obs.reset_counters ();
  check floatc "reset" 0.0 (Obs.counter_value "a")

let flush_emits_counter_deltas_once () =
  with_clean_obs @@ fun () ->
  let sink, events = recording () in
  Obs.set_sink sink;
  Obs.add "hits" 3;
  Obs.flush ();
  Obs.flush ();
  (* unchanged counters aren't re-emitted by the second flush *)
  let counter_events =
    List.filter (function Obs.Counter _ -> true | _ -> false) !events
  in
  check Alcotest.int "one counter event" 1 (List.length counter_events);
  Obs.add "hits" 1;
  Obs.flush ();
  let counter_events =
    List.filter (function Obs.Counter _ -> true | _ -> false) !events
  in
  check Alcotest.int "changed counter re-emitted" 2 (List.length counter_events)

(* --- null sink --------------------------------------------------------------- *)

let null_sink_is_inert () =
  with_clean_obs @@ fun () ->
  check Alcotest.bool "disabled by default" false (Obs.enabled ());
  let sp = Obs.start "ignored" in
  Obs.finish sp ~attrs:[ ("k", Obs.Int 1) ];
  Obs.add "c" 5;
  Obs.addf "c" 0.5;
  Obs.gauge "g" 2.0;
  check floatc "counters untouched" 0.0 (Obs.counter_value "c");
  check floatc "gauges untouched" 0.0 (Obs.counter_value "g");
  check Alcotest.int "no counters live" 0 (List.length (Obs.monotonic_counters ()));
  check Alcotest.int "no gauges live" 0 (List.length (Obs.gauges ()));
  Obs.flush () (* must be a no-op, not an error *)

(* --- jsonl sink --------------------------------------------------------------- *)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let jsonl_roundtrip () =
  with_clean_obs @@ fun () ->
  let path = Filename.temp_file "mcml_obs_test" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Obs.set_sink (Obs.jsonl path);
  Obs.with_span "outer" (fun () -> Obs.with_span "inner" (fun () -> ()));
  Obs.add "hits" 3;
  Obs.flush ();
  Obs.set_sink Obs.null;
  let lines = read_lines path in
  (* 2 span starts + 2 span ends + 1 counter + 2 histograms (every
     finished span feeds the histogram named after it) *)
  check Alcotest.int "event count" 7 (List.length lines);
  let parsed =
    List.map
      (fun line ->
        match Json.of_string line with
        | Ok j -> j
        | Error e -> Alcotest.failf "line %S is not valid JSON: %s" line e)
      lines
  in
  List.iter
    (fun j ->
      check Alcotest.bool "has ts" true
        (Option.is_some (Option.bind (Json.member "ts" j) Json.to_float_opt));
      check Alcotest.bool "has kind" true (Option.is_some (Json.member "kind" j));
      (* every line must parse back as a known schema-v3 event *)
      check Alcotest.bool "parses as an event" true
        (Result.is_ok (Obs.event_of_json j));
      match Json.member "kind" j with
      | Some (Json.Str ("span_start" | "span_end")) ->
          check Alcotest.bool "span has id" true
            (match Json.member "id" j with Some (Json.Int _) -> true | _ -> false);
          check Alcotest.bool "span has domain" true
            (match Json.member "domain" j with Some (Json.Int _) -> true | _ -> false)
      | Some (Json.Str "histogram") ->
          check Alcotest.bool "histogram has p50_ms" true
            (Option.is_some (Option.bind (Json.member "p50_ms" j) Json.to_float_opt))
      | _ -> ())
    parsed;
  let is_end_of name j =
    Json.member "kind" j = Some (Json.Str "span_end")
    && Json.member "name" j = Some (Json.Str name)
  in
  let inner_end =
    match List.find_opt (is_end_of "inner") parsed with
    | Some j -> j
    | None -> Alcotest.fail "no span_end for inner"
  in
  (match Option.bind (Json.member "dur_ms" inner_end) Json.to_float_opt with
  | Some d -> check Alcotest.bool "dur_ms positive" true (d > 0.0)
  | None -> Alcotest.fail "span_end without dur_ms");
  match List.find_opt (fun j -> Json.member "kind" j = Some (Json.Str "counter")) parsed with
  | Some j ->
      check Alcotest.bool "counter value" true
        (Option.bind (Json.member "value" j) Json.to_float_opt = Some 3.0)
  | None -> Alcotest.fail "no counter event"

(* --- histograms ---------------------------------------------------------------- *)

let hist_bucket_boundaries () =
  let module H = Obs.Histogram in
  check Alcotest.int "non-positive values land in bucket 0" 0 (H.bucket_of 0.0);
  check Alcotest.int "negative values land in bucket 0" 0 (H.bucket_of (-1.0));
  check Alcotest.int "lo itself lands in bucket 0" 0 (H.bucket_of H.lo);
  check Alcotest.bool "just above lo leaves bucket 0" true (H.bucket_of (H.lo *. 1.0001) > 0);
  (* each bucket's upper edge is inclusive, and the next value after
     it belongs to the next bucket *)
  List.iter
    (fun i ->
      let u = H.bucket_upper i in
      check Alcotest.int (Printf.sprintf "upper edge of bucket %d is inclusive" i) i
        (H.bucket_of u);
      check Alcotest.int (Printf.sprintf "just above bucket %d's edge" i) (i + 1)
        (H.bucket_of (u *. 1.0001));
      check (Alcotest.float 1e-12)
        (Printf.sprintf "lower edge of bucket %d = upper of %d" (i + 1) i)
        u
        (H.bucket_lower (i + 1)))
    [ 0; 1; 7; 40 ];
  check (Alcotest.float 1e-12) "bucket 0 lower edge" 0.0 (H.bucket_lower 0);
  (* growth factor: four buckets per doubling *)
  check Alcotest.bool "2^0.25 growth" true
    (abs_float ((H.growth ** 4.0) -. 2.0) < 1e-9);
  check Alcotest.int "huge values clamp to the last bucket" (H.bucket_count - 1)
    (H.bucket_of 1e40)

let hist_percentiles () =
  let module H = Obs.Histogram in
  let h = H.create () in
  check Alcotest.bool "empty stats" true (H.stats h = None);
  check (Alcotest.float 1e-12) "empty percentile" 0.0 (H.percentile h 0.5);
  (* 100 observations 1.0 .. 100.0: interpolated percentiles must land
     within one bucket width (~19%) of the true value *)
  for i = 1 to 100 do
    H.observe h (float_of_int i)
  done;
  check Alcotest.int "count" 100 (H.count h);
  List.iter
    (fun (p, truth) ->
      let v = H.percentile h p in
      let rel = abs_float (v -. truth) /. truth in
      check Alcotest.bool
        (Printf.sprintf "p%.0f ≈ %.0f (got %.3f)" (p *. 100.) truth v)
        true (rel < 0.20))
    [ (0.5, 50.0); (0.9, 90.0); (0.99, 99.0) ];
  check (Alcotest.float 1e-12) "p100 is the exact max" 100.0 (H.percentile h 1.0);
  match H.stats h with
  | None -> Alcotest.fail "stats on a non-empty histogram"
  | Some s ->
      check Alcotest.int "stats count" 100 s.Obs.count;
      check (Alcotest.float 1e-12) "stats max exact" 100.0 s.Obs.max;
      check Alcotest.bool "p50 <= p90 <= p99 <= max" true
        (s.Obs.p50 <= s.Obs.p90 && s.Obs.p90 <= s.Obs.p99 && s.Obs.p99 <= s.Obs.max)

let hist_merge_diff () =
  let module H = Obs.Histogram in
  let a = H.create () and b = H.create () and whole = H.create () in
  for i = 1 to 50 do
    H.observe a (float_of_int i);
    H.observe whole (float_of_int i)
  done;
  for i = 51 to 100 do
    H.observe b (float_of_int i);
    H.observe whole (float_of_int i)
  done;
  let m = H.merge a b in
  check Alcotest.int "merge count" 100 (H.count m);
  List.iter
    (fun p ->
      check (Alcotest.float 1e-12)
        (Printf.sprintf "merge p%.2f = whole" p)
        (H.percentile whole p) (H.percentile m p))
    [ 0.5; 0.9; 0.99; 1.0 ];
  (* diff recovers the later interval from a prefix snapshot *)
  let snap = H.copy a in
  for i = 1 to 25 do
    H.observe a (1000.0 +. float_of_int i)
  done;
  let d = H.diff a snap in
  check Alcotest.int "diff count" 25 (H.count d);
  check Alcotest.bool "diff p50 is in the new range" true (H.percentile d 0.5 > 900.0);
  (* the copy is independent of the original *)
  check Alcotest.int "copy unaffected" 50 (H.count snap)

(* A per-section window (bench's [timed]) must read like a histogram fed
   only that window: every percentile and the max within one bucket,
   whichever of the two periods held the larger values. *)
let hist_diff_matches_window =
  let module H = Obs.Histogram in
  let values =
    QCheck2.Gen.(
      list_size (int_range 0 60) (map (fun k -> float_of_int k /. 100.0) (int_range 1 10_000_000)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300
       ~name:"diff percentiles = window-only percentiles (within a bucket)"
       QCheck2.Gen.(pair values values)
       (fun (before, window) ->
         let h = H.create () and w = H.create () in
         List.iter (H.observe h) before;
         let snap = H.copy h in
         List.iter
           (fun v ->
             H.observe h v;
             H.observe w v)
           window;
         let d = H.diff h snap in
         let near a b = abs (H.bucket_of a - H.bucket_of b) <= 1 in
         match (H.stats d, H.stats w) with
         | None, None -> true
         | Some sd, Some sw ->
             sd.Obs.count = sw.Obs.count
             && near sd.Obs.p50 sw.Obs.p50
             && near sd.Obs.p90 sw.Obs.p90
             && near sd.Obs.p99 sw.Obs.p99
             && near sd.Obs.max sw.Obs.max
         | _ -> false))

let hist_sum () =
  let module H = Obs.Histogram in
  let h = H.create () in
  check (Alcotest.float 1e-12) "empty sum" 0.0 (H.sum h);
  H.observe h 1.5;
  H.observe h 2.5;
  check (Alcotest.float 1e-9) "sum accumulates" 4.0 (H.sum h);
  let snap = H.copy h in
  H.observe h 10.0;
  check (Alcotest.float 1e-9) "copy's sum is independent" 4.0 (H.sum snap);
  check (Alcotest.float 1e-9) "diff recovers the interval's sum" 10.0
    (H.sum (H.diff h snap));
  check (Alcotest.float 1e-9) "merge adds sums" 18.0 (H.sum (H.merge h snap))

let observe_and_flush_histograms () =
  with_clean_obs @@ fun () ->
  let sink, events = recording () in
  Obs.set_sink sink;
  Obs.observe "lat" 1.0;
  Obs.observe "lat" 2.0;
  Obs.observe "lat" 3.0;
  (match Obs.histogram_stats "lat" with
  | None -> Alcotest.fail "histogram missing"
  | Some s ->
      check Alcotest.int "count" 3 s.Obs.count;
      check (Alcotest.float 1e-12) "max" 3.0 s.Obs.max);
  check Alcotest.int "snapshot lists it" 1 (List.length (Obs.histograms ()));
  Obs.flush ();
  Obs.flush ();
  let hist_events =
    List.filter (function Obs.Histogram _ -> true | _ -> false) !events
  in
  (* like counters: emitted once, not re-emitted unchanged *)
  check Alcotest.int "one histogram event" 1 (List.length hist_events);
  Obs.observe "lat" 4.0;
  Obs.flush ();
  let hist_events =
    List.filter (function Obs.Histogram _ -> true | _ -> false) !events
  in
  check Alcotest.int "changed histogram re-emitted" 2 (List.length hist_events);
  Obs.reset_counters ();
  check Alcotest.int "reset clears histograms" 0 (List.length (Obs.histograms ()))

(* --- counter/gauge registry split ----------------------------------------------- *)

let registry_split () =
  with_clean_obs @@ fun () ->
  Obs.set_sink (Obs.stats_only ());
  Obs.add "req.ok" 3;
  Obs.gauge "pool.depth" 2.0;
  Obs.gauge "pool.depth" 5.0;
  check
    Alcotest.(list (pair string (float 1e-9)))
    "monotonic counters" [ ("req.ok", 3.0) ]
    (Obs.monotonic_counters ());
  check
    Alcotest.(list (pair string (float 1e-9)))
    "gauges" [ ("pool.depth", 5.0) ] (Obs.gauges ());
  check floatc "counter_value reads gauges too" 5.0 (Obs.counter_value "pool.depth");
  Obs.reset_counters ();
  check Alcotest.int "reset clears counters" 0 (List.length (Obs.monotonic_counters ()));
  check Alcotest.int "reset clears gauges" 0 (List.length (Obs.gauges ()))

let gauge_set_bypasses_sink () =
  with_clean_obs @@ fun () ->
  check Alcotest.bool "null sink installed" false (Obs.enabled ());
  Obs.gauge "g" 1.0;
  (* conditional: dropped *)
  Obs.gauge_set "g" 7.0;
  (* unconditional: recorded even under the null sink *)
  check floatc "gauge_set recorded" 7.0 (Obs.counter_value "g");
  check
    Alcotest.(list (pair string (float 1e-9)))
    "listed as a gauge" [ ("g", 7.0) ] (Obs.gauges ());
  check Alcotest.int "not a counter" 0 (List.length (Obs.monotonic_counters ()))

(* --- metrics exposition ---------------------------------------------------------- *)

let metric_name_sanitized () =
  check Alcotest.string "dots become underscores" "mcml_serve_requests_ok"
    (Metrics.metric_name "serve.requests.ok");
  check Alcotest.string "arbitrary chars sanitized" "mcml_a_b_c:d"
    (Metrics.metric_name "a-b c:d")

let metrics_exposition_roundtrip () =
  with_clean_obs @@ fun () ->
  Obs.set_sink (Obs.stats_only ());
  Obs.add "serve.requests.ok" 42;
  Obs.gauge "gc.heap_words" 786432.0;
  Obs.observe "serve.request" 0.5;
  Obs.observe "serve.request" 1.5;
  let snap = Metrics.snapshot () in
  check Alcotest.int "one counter" 1 (List.length snap.Metrics.counters);
  check Alcotest.int "one gauge" 1 (List.length snap.Metrics.gauges);
  check Alcotest.int "one histogram" 1 (List.length snap.Metrics.histograms);
  let text = Metrics.to_openmetrics snap in
  (match Metrics.lint text with
  | Ok () -> ()
  | Error e -> Alcotest.failf "lint rejected our own exposition: %s" e);
  let lines = String.split_on_char '\n' text in
  let has l =
    check Alcotest.bool (Printf.sprintf "line %S present" l) true (List.mem l lines)
  in
  has "# TYPE mcml_serve_requests_ok counter";
  has "mcml_serve_requests_ok_total 42";
  has "# TYPE mcml_gc_heap_words gauge";
  has "mcml_gc_heap_words 786432";
  has "# TYPE mcml_serve_request histogram";
  has {|mcml_serve_request_bucket{le="+Inf"} 2|};
  has "mcml_serve_request_count 2";
  has "mcml_serve_request_sum 2";
  (* cumulative buckets: the last finite bucket already accounts for
     every observation *)
  let bucket_counts =
    List.filter_map
      (fun l ->
        if
          String.length l > 0
          && String.starts_with ~prefix:"mcml_serve_request_bucket{le=\"" l
          && not (String.starts_with ~prefix:{|mcml_serve_request_bucket{le="+Inf"|} l)
        then
          match String.rindex_opt l ' ' with
          | Some sp ->
              int_of_string_opt
                (String.sub l (sp + 1) (String.length l - sp - 1))
          | None -> None
        else None)
      lines
  in
  check Alcotest.bool "finite buckets are cumulative" true
    (bucket_counts = List.sort compare bucket_counts);
  check Alcotest.(option int) "last finite bucket covers all" (Some 2)
    (match List.rev bucket_counts with c :: _ -> Some c | [] -> None);
  check Alcotest.bool "ends with # EOF" true
    (match List.rev lines with "" :: "# EOF" :: _ -> true | _ -> false);
  (* two renderings of one snapshot agree (it is a copy, not a view) *)
  Obs.add "serve.requests.ok" 1;
  check Alcotest.string "snapshot is immutable" text (Metrics.to_openmetrics snap)

let metrics_json_rendering () =
  with_clean_obs @@ fun () ->
  Obs.set_sink (Obs.stats_only ());
  Obs.add "c" 3;
  Obs.gauge "g" 1.5;
  Obs.observe "h" 2.0;
  let j = Metrics.to_json (Metrics.snapshot ()) in
  check Alcotest.bool "schema tag" true
    (Json.member "schema" j = Some (Json.Str "mcml.metrics.v1"));
  check Alcotest.bool "has ts" true
    (Option.is_some (Option.bind (Json.member "ts" j) Json.to_float_opt));
  let num section name =
    Option.bind (Json.member section j) (fun s ->
        Option.bind (Json.member name s) Json.to_float_opt)
  in
  check Alcotest.(option (float 1e-9)) "counter by original name" (Some 3.0)
    (num "counters" "c");
  check Alcotest.(option (float 1e-9)) "gauge by original name" (Some 1.5)
    (num "gauges" "g");
  match Option.bind (Json.member "histograms" j) (Json.member "h") with
  | None -> Alcotest.fail "histogram missing from JSON rendering"
  | Some hj ->
      check Alcotest.bool "histogram count" true
        (Json.member "count" hj = Some (Json.Int 1));
      check Alcotest.(option (float 1e-9)) "histogram sum" (Some 2.0)
        (Option.bind (Json.member "sum" hj) Json.to_float_opt);
      check Alcotest.bool "histogram p99" true
        (Option.is_some (Option.bind (Json.member "p99_ms" hj) Json.to_float_opt))

let metrics_lint_rejects () =
  List.iter
    (fun (label, text) ->
      check Alcotest.bool label true (Result.is_error (Metrics.lint text)))
    [
      ("missing # EOF", "# TYPE mcml_x counter\nmcml_x_total 1\n");
      ("sample without declaration", "mcml_x_total 1\n# EOF\n");
      ("counter sample without _total", "# TYPE mcml_x counter\nmcml_x 1\n# EOF\n");
      ("gauge sample with _total", "# TYPE mcml_x gauge\nmcml_x_total 1\n# EOF\n");
      ("unparseable value", "# TYPE mcml_x gauge\nmcml_x pony\n# EOF\n");
      ("text after # EOF", "# EOF\nmcml_x 1\n");
      ("invalid family name", "# TYPE mcml-x counter\nmcml-x_total 1\n# EOF\n");
      ("duplicate family", "# TYPE mcml_x gauge\n# TYPE mcml_x gauge\nmcml_x 1\n# EOF\n");
      ("malformed labels", "# TYPE mcml_x histogram\nmcml_x_bucket{le=\"1\" 2\n# EOF\n");
      ("blank line", "# TYPE mcml_x gauge\n\nmcml_x 1\n# EOF\n");
      ("empty exposition", "");
    ];
  check Alcotest.bool "empty snapshot still lints" true
    (Result.is_ok
       (Metrics.lint
          (Metrics.to_openmetrics
             { Metrics.taken_at = 0.0; counters = []; gauges = []; histograms = [] })))

(* --- runtime probes --------------------------------------------------------------- *)

let probe_builtin_gauges () =
  with_clean_obs @@ fun () ->
  (* sampling records even under the null sink: it is an explicit act *)
  Probe.sample ();
  let g = Obs.counter_value in
  check Alcotest.bool "gc.heap_words positive" true (g "gc.heap_words" > 0.0);
  check Alcotest.bool "gc.minor_words positive" true (g "gc.minor_words" > 0.0);
  check Alcotest.bool "proc.max_rss_bytes positive" true (g "proc.max_rss_bytes" > 0.0);
  check Alcotest.bool "proc.cpu_user_s non-negative" true (g "proc.cpu_user_s" >= 0.0);
  (* every built-in lands in the gauge table, none in the counters *)
  check Alcotest.int "no monotonic counters" 0 (List.length (Obs.monotonic_counters ()));
  check Alcotest.bool "gauges listed" true (List.mem_assoc "gc.heap_words" (Obs.gauges ()));
  let ru = Probe.rusage () in
  check Alcotest.bool "rusage max_rss positive" true (ru.Probe.max_rss_bytes > 0.0);
  check Alcotest.bool "rusage cpu times non-negative" true
    (ru.Probe.user_s >= 0.0 && ru.Probe.sys_s >= 0.0)

let probe_dynamic_sources () =
  with_clean_obs @@ fun () ->
  Fun.protect
    ~finally:(fun () ->
      Probe.unregister "test.answer";
      Probe.unregister "test.boom")
  @@ fun () ->
  Probe.register "test.answer" (fun () -> 42.0);
  Probe.register "test.boom" (fun () -> failwith "dying subsystem");
  Probe.sample ();
  check floatc "dynamic source sampled" 42.0 (Obs.counter_value "test.answer");
  check floatc "raising source skipped, scrape survives" 0.0
    (Obs.counter_value "test.boom");
  Probe.register "test.answer" (fun () -> 43.0);
  Probe.sample ();
  check floatc "register replaces" 43.0 (Obs.counter_value "test.answer");
  Probe.unregister "test.answer";
  Obs.reset_counters ();
  Probe.sample ();
  check floatc "unregistered source no longer sampled" 0.0
    (Obs.counter_value "test.answer")

(* --- event JSON round-trip ------------------------------------------------------ *)

let event_json_roundtrip () =
  let evs =
    [
      Obs.Span_start
        {
          ts = 1.5;
          name = "a";
          id = 3;
          parent = None;
          domain = 0;
          pid = 101;
          trace = Some 987654321;
          remote = None;
        };
      Obs.Span_start
        {
          ts = 1.6;
          name = "b";
          id = 4;
          parent = Some 3;
          domain = 2;
          pid = 101;
          trace = None;
          remote = None;
        };
      (* a shard span adopted from a router in another process *)
      Obs.Span_start
        {
          ts = 1.65;
          name = "adopted";
          id = 5;
          parent = None;
          domain = 0;
          pid = 102;
          trace = Some 987654321;
          remote = Some (101, 3);
        };
      Obs.Span_end
        {
          ts = 1.7;
          name = "b";
          id = 4;
          parent = Some 3;
          domain = 2;
          pid = 101;
          trace = None;
          remote = None;
          dur_ms = 0.25;
          attrs = [ ("n", Obs.Int 7); ("ok", Obs.Bool true); ("s", Obs.Str "x") ];
        };
      Obs.Counter { ts = 1.8; name = "c"; value = 42.0; pid = 101 };
      Obs.Gauge { ts = 1.85; name = "g"; value = 0.5; pid = 101 };
      Obs.Histogram
        {
          ts = 1.9;
          name = "h";
          pid = 101;
          stats = { Obs.count = 10; p50 = 0.1; p90 = 0.2; p99 = 0.3; max = 0.4 };
        };
    ]
  in
  List.iter
    (fun e ->
      match Obs.event_of_json (Obs.event_to_json e) with
      | Ok e' ->
          check Alcotest.string "round-trip fixpoint"
            (Json.to_string (Obs.event_to_json e))
            (Json.to_string (Obs.event_to_json e'))
      | Error msg -> Alcotest.failf "round-trip failed: %s" msg)
    evs;
  (* unknown kinds and missing fields are errors, not silent drops *)
  List.iter
    (fun s ->
      let j =
        match Json.of_string s with Ok j -> j | Error e -> Alcotest.failf "bad fixture: %s" e
      in
      check Alcotest.bool (Printf.sprintf "rejects %s" s) true
        (Result.is_error (Obs.event_of_json j)))
    [
      {|{"ts":1.0,"kind":"mystery","name":"x"}|};
      {|{"ts":1.0,"kind":"span_start","name":"x"}|};
      {|{"kind":"counter","name":"x","value":1.0}|};
      {|{"ts":1.0,"kind":"gauge","name":"x","pid":1}|};
      {|{"ts":1.0,"kind":"gauge","name":"x","value":"1","pid":1}|};
      {|{"ts":1.0,"kind":"span_end","name":"x","id":1,"domain":0,"pid":1}|};
      (* a remote reference must carry both integer pid and id *)
      {|{"ts":1.0,"kind":"span_start","name":"x","id":1,"domain":0,"pid":1,"remote":{"pid":3}}|};
      {|{"ts":1.0,"kind":"span_start","name":"x","id":1,"domain":0,"pid":1,"remote":7}|};
    ];
  (* schema-v2 lines carry no pid: rejected, and the error names it *)
  List.iter
    (fun s ->
      match Result.map Obs.event_of_json (Json.of_string s) with
      | Ok (Error msg) ->
          check Alcotest.string (Printf.sprintf "rejects %s" s)
            {|missing field "pid"|} msg
      | Ok (Ok _) -> Alcotest.failf "v2 line %s parsed" s
      | Error e -> Alcotest.failf "bad fixture: %s" e)
    [
      {|{"ts":1.0,"kind":"span_start","name":"x","id":1,"domain":0}|};
      {|{"ts":1.1,"kind":"span_end","name":"x","id":1,"domain":0,"dur_ms":0.5}|};
      {|{"ts":1.2,"kind":"counter","name":"c","value":3}|};
      {|{"ts":1.2,"kind":"gauge","name":"g","value":3}|};
      {|{"ts":1.3,"kind":"histogram","name":"h","count":1,"p50_ms":1,"p90_ms":1,"p99_ms":1,"max_ms":1}|};
    ]

(* --- distributed tracing: propagation, merge, flight recorder ------------------- *)

let trace_propagation () =
  with_clean_obs @@ fun () ->
  let sink, events = recording () in
  Obs.set_sink sink;
  check Alcotest.bool "no propagation outside a span" true (Obs.propagation () = None);
  Obs.with_new_trace (fun () ->
      check Alcotest.bool "no propagation without a span" true
        (Obs.propagation () = None);
      let sp = Obs.start "work" in
      (match Obs.propagation () with
      | None -> Alcotest.fail "no propagation inside a traced span"
      | Some (tid, pid, span) ->
          check Alcotest.bool "trace id is a positive 63-bit int" true (tid > 0);
          check Alcotest.int "own pid" (Unix.getpid ()) pid;
          check Alcotest.bool "span id matches the start event" true
            (List.exists
               (function
                 | Obs.Span_start { name = "work"; id; _ } -> id = span
                 | _ -> false)
               !events);
          (* nested trace installs nothing new *)
          Obs.with_new_trace (fun () ->
              check Alcotest.bool "inner with_new_trace keeps the trace" true
                (match Obs.propagation () with
                | Some (tid', _, _) -> tid' = tid
                | None -> false)));
      Obs.finish sp);
  (* two traces get distinct ids *)
  let tid_of () =
    Obs.with_new_trace (fun () ->
        let sp = Obs.start "t" in
        let r = Obs.propagation () in
        Obs.finish sp;
        match r with Some (tid, _, _) -> tid | None -> Alcotest.fail "no tid")
  in
  check Alcotest.bool "fresh ids are distinct" true (tid_of () <> tid_of ())

let trace_remote_adoption () =
  with_clean_obs @@ fun () ->
  let sink, events = recording () in
  Obs.set_sink sink;
  Obs.with_context
    (Obs.remote_context ~trace_id:55 ~pid:4242 ~span:17)
    (fun () ->
      let outer = Obs.start "adopted" in
      let inner = Obs.start "child" in
      Obs.finish inner;
      Obs.finish outer);
  let starts =
    List.filter_map
      (function
        | Obs.Span_start { name; trace; remote; parent; _ } ->
            Some (name, trace, remote, parent)
        | _ -> None)
      (List.rev !events)
  in
  match starts with
  | [ ("adopted", t0, r0, p0); ("child", t1, r1, _) ] ->
      check Alcotest.bool "adopted span carries the wire trace" true (t0 = Some 55);
      check Alcotest.bool "adopted span carries the remote parent" true
        (r0 = Some (4242, 17));
      check Alcotest.bool "adopted span has no local parent" true (p0 = None);
      check Alcotest.bool "child inherits the trace" true (t1 = Some 55);
      check Alcotest.bool "remote consumed by the first span only" true (r1 = None)
  | _ -> Alcotest.fail "expected exactly two span starts"

(* Terse event constructors for hand-built streams. *)
let ss ?(ts = 0.0) ?parent ?trace ?remote ~pid ~id name =
  Obs.Span_start { ts; name; id; parent; domain = 0; pid; trace; remote }

let se ?(ts = 1.0) ?parent ?trace ?remote ?(dur = 1.0) ~pid ~id name =
  Obs.Span_end
    { ts; name; id; parent; domain = 0; pid; trace; remote; dur_ms = dur; attrs = [] }

let trace_merge_cross_process () =
  (* a router (pid 1) and a shard (pid 2); the shard's serve.request
     references the router's fleet.route span remotely.  Span id 1 is
     deliberately reused across pids: ids are per-process. *)
  let router =
    [
      ss ~pid:1 ~id:1 ~trace:77 "fleet.conn";
      ss ~pid:1 ~id:2 ~parent:1 ~trace:77 "fleet.route";
      se ~pid:1 ~id:2 ~parent:1 ~trace:77 "fleet.route";
      se ~pid:1 ~id:1 ~trace:77 "fleet.conn";
    ]
  in
  let shard =
    [
      ss ~pid:2 ~id:1 ~trace:77 ~remote:(1, 2) "serve.request";
      se ~pid:2 ~id:1 ~trace:77 ~remote:(1, 2) "serve.request";
    ]
  in
  match Trace.merge [ ("router", router); ("shard", shard) ] with
  | Error errs -> Alcotest.failf "merge failed: %s" (String.concat "; " errs)
  | Ok t ->
      check Alcotest.int "3 spans" 3 t.Trace.num_spans;
      check Alcotest.int "one root (the conn)" 1 (List.length t.Trace.roots);
      check Alcotest.int "one remote edge" 1 t.Trace.remote_edges;
      check Alcotest.int "one cross-pid edge" 1 t.Trace.cross_pid_edges;
      check Alcotest.int "two processes" 2 (List.length t.Trace.pids);
      let conn = List.hd t.Trace.roots in
      check Alcotest.string "root is the conn" "fleet.conn" conn.Trace.name;
      (match conn.Trace.children with
      | [ route ] -> (
          check Alcotest.string "route under conn" "fleet.route" route.Trace.name;
          match route.Trace.children with
          | [ req ] ->
              check Alcotest.string "shard request under the route"
                "serve.request" req.Trace.name;
              check Alcotest.int "request kept its pid" 2 req.Trace.pid;
              check Alcotest.bool "edge recorded on the span" true
                (req.Trace.remote_parent = Some (1, 2));
              check Alcotest.bool "trace id survives" true (req.Trace.trace = Some 77)
          | kids ->
              Alcotest.failf "route has %d children, want the one request"
                (List.length kids))
      | kids -> Alcotest.failf "conn has %d children, want 1" (List.length kids));
      (* the same streams through of_events (one sink): remote still resolves *)
      (match Trace.of_events (router @ shard) with
      | Ok t1 -> check Alcotest.int "single-stream merge agrees" 3 t1.Trace.num_spans
      | Error errs ->
          Alcotest.failf "single-stream remote resolution failed: %s"
            (String.concat "; " errs))

let trace_merge_dangling_remote () =
  let shard =
    [
      ss ~pid:2 ~id:1 ~remote:(1, 99) "serve.request";
      se ~pid:2 ~id:1 ~remote:(1, 99) "serve.request";
    ]
  in
  (match Trace.merge [ ("shard", shard) ] with
  | Ok _ -> Alcotest.fail "dangling remote parent must be fatal"
  | Error errs ->
      let contains hay needle =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      check Alcotest.bool "error names the remote parent" true
        (List.exists (fun e -> contains e "remote") errs));
  (* a span carrying both a local and a remote parent is as fatal *)
  let bad =
    [
      ss ~pid:1 ~id:1 "root";
      ss ~pid:1 ~id:2 ~parent:1 ~remote:(1, 1) "both";
      se ~pid:1 ~id:2 ~parent:1 "both";
      se ~pid:1 ~id:1 "root";
    ]
  in
  match Trace.merge [ ("s", bad) ] with
  | Ok _ -> Alcotest.fail "dual parentage must be fatal"
  | Error _ -> ()

(* The live sink and the replay print one report, byte for byte, for
   one stream: two domains, a child of the second [task] starting
   before one of the first's (rows follow start order, not forest
   order), summed Int/Float attributes beside last-wins strings, and
   counters and histograms flushed twice (the last value wins). *)
let live_report_equals_replay () =
  let span ~domain ?parent ~id name =
    Obs.Span_start { ts = 0.0; name; id; parent; domain; pid = 7; trace = None; remote = None }
  in
  let span_end ~domain ?parent ?(attrs = []) ~id ~dur name =
    Obs.Span_end
      { ts = 1.0; name; id; parent; domain; pid = 7; trace = None; remote = None;
        dur_ms = dur; attrs }
  in
  let hist name count =
    Obs.Histogram
      { ts = 2.0; name; pid = 7;
        stats = { Obs.count; p50 = 0.5; p90 = 1.0; p99 = 2.0; max = 2.0 } }
  in
  let counter name value = Obs.Counter { ts = 2.0; name; value; pid = 7 } in
  let events =
    [
      span ~domain:0 ~id:1 "req";
      span ~domain:1 ~parent:1 ~id:2 "task";
      span ~domain:0 ~parent:1 ~id:3 "task";
      span ~domain:0 ~parent:3 ~id:4 "b";
      span ~domain:1 ~parent:2 ~id:5 "a";
      span_end ~domain:0 ~parent:3 ~id:4 ~dur:0.5 "b"
        ~attrs:[ ("n", Obs.Int 2); ("mode", Obs.Str "compile") ];
      span_end ~domain:0 ~parent:1 ~id:3 ~dur:1.25 "task"
        ~attrs:[ ("n", Obs.Int 3); ("rate", Obs.Float 0.5); ("mode", Obs.Str "count") ];
      counter "hits" 1.0;
      hist "task" 1;
      span_end ~domain:1 ~parent:2 ~id:5 ~dur:0.75 "a";
      span_end ~domain:1 ~parent:1 ~id:2 ~dur:2.0 "task"
        ~attrs:[ ("n", Obs.Int 4); ("rate", Obs.Float 0.25); ("mode", Obs.Str "compile") ];
      span_end ~domain:0 ~id:1 ~dur:3.5 "req" ~attrs:[ ("ok", Obs.Bool true) ];
      counter "hits" 3.0;
      counter "bytes" 2.5;
      hist "task" 2;
      hist "req" 1;
    ]
  in
  let printed f =
    let path = Filename.temp_file "mcml_report" ".txt" in
    Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    @@ fun () ->
    let oc = open_out path in
    f oc;
    close_out oc;
    String.concat "\n" (read_lines path)
  in
  let live =
    printed (fun oc ->
        let sink = Trace.live ~oc () in
        List.iter sink.Obs.emit events;
        sink.Obs.flush ())
  in
  let replay =
    printed (fun oc ->
        match Trace.of_events events with
        | Ok t -> Trace.render oc t
        | Error errs -> Alcotest.failf "invalid stream: %s" (String.concat "; " errs))
  in
  check Alcotest.string "live report = replay" replay live;
  let lines = String.split_on_char '\n' live in
  List.iter
    (fun l -> check Alcotest.bool ("has " ^ l) true (List.mem l lines))
    [
      "-- span forest (5 spans, 2 domains) ------------------------------";
      "req  3.5ms  {ok=true}";
      "  task x2  3.2ms  {n=7, rate=0.75, mode=compile}";
      "    b  0.500ms  {n=2, mode=compile}";
      "    a  0.750ms";
      "domain 0        3 spans       5.2ms total";
      "domain 1        2 spans       2.8ms total";
      "task                                    2   0.500ms     1.0ms     2.0ms     2.0ms";
      "hits                                                  3";
      "bytes                                             2.500";
    ];
  check Alcotest.bool "b before a" true
    (List.find_index (String.equal "    b  0.500ms  {n=2, mode=compile}") lines
    < List.find_index (String.equal "    a  0.750ms") lines);
  check Alcotest.string "a flush with no new events prints nothing" ""
    (printed (fun oc ->
         let sink = Trace.live ~oc () in
         sink.Obs.flush ()))

(* Two processes each flush gauge r = 1 and counter c = 2: the
   counter sums to 4, the gauge prints once per process, unsummed, and
   the live report equals the replay.  A trace written before gauge
   events existed carries the gauge as a counter and still loads. *)
let gauges_kept_per_process () =
  with_clean_obs @@ fun () ->
  let sink, events = recording () in
  Obs.set_sink sink;
  Obs.gauge "r" 1.0;
  Obs.add "c" 2;
  Obs.flush ();
  let first = List.rev !events in
  let pid =
    match List.find_opt (function Obs.Gauge _ -> true | _ -> false) first with
    | Some (Obs.Gauge { name = "r"; value = 1.0; pid; _ }) -> pid
    | _ -> Alcotest.fail "flush emitted no gauge event for r"
  in
  let second =
    List.map
      (function
        | Obs.Gauge g -> Obs.Gauge { g with pid = pid + 1 }
        | Obs.Counter c -> Obs.Counter { c with pid = pid + 1 }
        | e -> e)
      first
  in
  (* through the JSONL codec, as a trace file would carry them *)
  let wire evs =
    List.map
      (fun e ->
        match Result.bind (Json.of_string (Json.to_string (Obs.event_to_json e))) Obs.event_of_json with
        | Ok e -> e
        | Error msg -> Alcotest.failf "event did not round-trip: %s" msg)
      evs
  in
  let render_to_string f =
    let path = Filename.temp_file "mcml_gauges" ".txt" in
    Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    @@ fun () ->
    let oc = open_out path in
    f oc;
    close_out oc;
    read_lines path
  in
  let replay =
    render_to_string (fun oc ->
        match Trace.merge [ ("a", wire first); ("b", wire second) ] with
        | Ok t -> Trace.render oc t
        | Error errs -> Alcotest.failf "invalid streams: %s" (String.concat "; " errs))
  in
  let live =
    render_to_string (fun oc ->
        let sink = Trace.live ~oc () in
        List.iter sink.Obs.emit (first @ second);
        sink.Obs.flush ())
  in
  check Alcotest.(list string) "live report = replay" replay live;
  let row name v = Printf.sprintf "%-40s %14s" name v in
  List.iter
    (fun l -> check Alcotest.bool ("has " ^ l) true (List.mem l replay))
    [ row "c" "4"; row (Printf.sprintf "pid%d/r" pid) "1"; row (Printf.sprintf "pid%d/r" (pid + 1)) "1" ];
  check Alcotest.int "one r line per process" 2
    (List.length (List.filter (fun l -> String.ends_with ~suffix:"/r" (List.hd (String.split_on_char ' ' l))) replay));
  (* an old trace: the gauge arrives as a counter line, loads, sums *)
  match
    Trace.of_events
      (List.map
         (fun s -> match Result.bind (Json.of_string s) Obs.event_of_json with
           | Ok e -> e
           | Error msg -> Alcotest.failf "old line %s rejected: %s" s msg)
         [ {|{"ts":1.0,"kind":"counter","name":"r","value":1.0,"pid":7}|} ])
  with
  | Ok t ->
      check Alcotest.(list (pair string (float 0.0))) "old gauge reads as a counter"
        [ ("r", 1.0) ] t.Trace.counters
  | Error errs -> Alcotest.failf "old trace rejected: %s" (String.concat "; " errs)

let flight_ring () =
  with_clean_obs @@ fun () ->
  let r = Flight.create ~capacity:4 () in
  check Alcotest.int "capacity clamped from below" 1 (Flight.capacity (Flight.create ~capacity:0 ()));
  Obs.set_sink (Flight.sink r);
  for i = 1 to 6 do
    Obs.with_span (Printf.sprintf "s%d" i) (fun () -> ())
  done;
  (* 6 spans = 12 events through a 4-slot ring *)
  check Alcotest.int "recorded counts everything" 12 (Flight.recorded r);
  check Alcotest.int "dropped = recorded - capacity" 8 (Flight.dropped r);
  let evs = Flight.events r in
  check Alcotest.int "window holds capacity" 4 (List.length evs);
  (* oldest-first: the last retained events are the final two spans *)
  let names =
    List.filter_map
      (function
        | Obs.Span_start { name; _ } | Obs.Span_end { name; _ } -> Some name
        | _ -> None)
      evs
  in
  check Alcotest.(list string) "most recent window, oldest first"
    [ "s5"; "s5"; "s6"; "s6" ] names;
  let path = Filename.temp_file "mcml_flight" ".events" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  check Alcotest.int "dump writes the window" 4 (Flight.dump r path);
  let lines = read_lines path in
  check Alcotest.int "one line per event" 4 (List.length lines);
  List.iter
    (fun line ->
      match Json.of_string line with
      | Error e -> Alcotest.failf "dump line %S unparseable: %s" line e
      | Ok j ->
          check Alcotest.bool "dump line is a schema event" true
            (Result.is_ok (Obs.event_of_json j)))
    lines

(* --- fleet metrics merging ------------------------------------------------------- *)

let snapshot_wire_roundtrip () =
  with_clean_obs @@ fun () ->
  Obs.set_sink (Obs.stats_only ());
  Obs.add "serve.requests.ok" 42;
  Obs.gauge "pool.depth" 3.0;
  for i = 1 to 100 do
    Obs.observe "serve.request" (float_of_int i)
  done;
  let snap = Metrics.snapshot () in
  match Metrics.snapshot_of_wire (Metrics.snapshot_to_wire snap) with
  | Error msg -> Alcotest.failf "wire round-trip failed: %s" msg
  | Ok back ->
      check
        Alcotest.(list (pair string (float 1e-9)))
        "counters survive" snap.Metrics.counters back.Metrics.counters;
      check
        Alcotest.(list (pair string (float 1e-9)))
        "gauges survive" snap.Metrics.gauges back.Metrics.gauges;
      let h = List.assoc "serve.request" snap.Metrics.histograms in
      let h' = List.assoc "serve.request" back.Metrics.histograms in
      let module H = Obs.Histogram in
      check Alcotest.int "histogram count survives" (H.count h) (H.count h');
      check (Alcotest.float 1e-9) "histogram sum survives" (H.sum h) (H.sum h');
      check (Alcotest.float 1e-9) "max survives exactly" (H.max_value h)
        (H.max_value h');
      (* raw buckets, not summaries: percentiles agree exactly *)
      List.iter
        (fun p ->
          check (Alcotest.float 1e-9)
            (Printf.sprintf "p%.2f survives" p)
            (H.percentile h p) (H.percentile h' p))
        [ 0.5; 0.9; 0.99; 1.0 ];
      (* garbage is rejected, not half-parsed *)
      check Alcotest.bool "wrong schema rejected" true
        (Result.is_error (Metrics.snapshot_of_wire (Json.Obj [ ("schema", Json.Str "nope") ])))

let take_snapshot build =
  with_clean_obs @@ fun () ->
  Obs.set_sink (Obs.stats_only ());
  build ();
  Metrics.snapshot ()

let fleet_exposition () =
  let shard0 =
    take_snapshot (fun () ->
        Obs.add "serve.requests.ok" 12;
        Obs.gauge "pool.depth" 2.0;
        Obs.observe "serve.request" 1.0)
  in
  let shard1 =
    take_snapshot (fun () ->
        Obs.add "serve.requests.ok" 8;
        Obs.observe "serve.request" 2.0)
  in
  let router =
    take_snapshot (fun () -> Obs.add "fleet.requests.ok" 20)
  in
  let text =
    Metrics.fleet_to_openmetrics ~router
      ~shards:[ (0, Ok shard0); (1, Ok shard1); (2, Error "internal: boom") ]
  in
  (match Metrics.lint text with
  | Ok () -> ()
  | Error e -> Alcotest.failf "fleet exposition failed lint: %s" e);
  let lines = String.split_on_char '\n' text in
  let has l =
    check Alcotest.bool (Printf.sprintf "line %S present" l) true (List.mem l lines)
  in
  (* per-shard samples plus the unlabeled sum over numeric shards *)
  has {|mcml_serve_requests_ok_total{shard="0"} 12|};
  has {|mcml_serve_requests_ok_total{shard="1"} 8|};
  has "mcml_serve_requests_ok_total 20";
  has {|mcml_fleet_requests_ok_total{shard="router"} 20|};
  (* gauges stay per-shard, never summed *)
  has {|mcml_pool_depth{shard="0"} 2|};
  check Alcotest.bool "no unlabeled gauge sum" false
    (List.mem "mcml_pool_depth 2" lines);
  (* the dead shard is visible, the live ones are marked up *)
  has {|mcml_fleet_shard_up{shard="0"} 1|};
  has {|mcml_fleet_shard_up{shard="1"} 1|};
  has {|mcml_fleet_shard_up{shard="2"} 0|};
  (* histograms merge bucket-wise across sources *)
  has "mcml_serve_request_count 2";
  has "mcml_serve_request_sum 3";
  (* exactly one TYPE declaration per family (the old concatenation
     emitted one per shard, which lint rejects) *)
  let type_lines =
    List.filter (String.starts_with ~prefix:"# TYPE mcml_serve_requests_ok ") lines
  in
  check Alcotest.int "one TYPE per family" 1 (List.length type_lines)

let fleet_json () =
  let shard0 = take_snapshot (fun () -> Obs.add "serve.requests.ok" 5) in
  let router = take_snapshot (fun () -> Obs.add "fleet.requests.ok" 5) in
  let j =
    Metrics.fleet_to_json ~router
      ~shards:[ (0, Ok shard0); (1, Error "internal: boom") ]
  in
  check Alcotest.bool "fleet schema tag" true
    (Json.member "schema" j = Some (Json.Str "mcml.metrics.fleet.v1"));
  check Alcotest.bool "router section present" true
    (match Json.member "router" j with
    | Some r -> Json.member "schema" r = Some (Json.Str "mcml.metrics.v1")
    | None -> false);
  match Json.member "shards" j with
  | Some (Json.List [ s0; s1 ]) ->
      check Alcotest.bool "shard 0 tagged" true
        (Json.member "shard" s0 = Some (Json.Int 0));
      check Alcotest.bool "shard 1 carries its error" true
        (match Json.member "error" s1 with Some (Json.Str _) -> true | _ -> false)
  | _ -> Alcotest.fail "shards must be a 2-element list"

(* --- JSON printer/parser -------------------------------------------------------- *)

let json_roundtrip () =
  let j =
    Json.Obj
      [
        ("list", Json.List [ Json.Int 1; Json.Float 2.5; Json.Null; Json.Bool false ]);
        ("str", Json.Str "he\"llo\n\t\\ \x01 é");
        ("neg", Json.Int (-42));
        ("empty", Json.Obj []);
      ]
  in
  let s = Json.to_string j in
  match Json.of_string s with
  | Ok j2 -> check Alcotest.string "print/parse/print fixpoint" s (Json.to_string j2)
  | Error e -> Alcotest.failf "failed to parse %S: %s" s e

let json_rejects_garbage () =
  List.iter
    (fun s ->
      check Alcotest.bool (Printf.sprintf "rejects %S" s) true
        (Result.is_error (Json.of_string s)))
    [ "{"; "[1,"; "1 2"; "\"unterminated"; "{\"a\":}"; "nul"; "" ];
  (* nesting: the limit parses; one level more fails there, naming it,
     and so does a 1 MiB line of '[' *)
  let nested d = String.concat "" (List.init d (fun _ -> "{\"a\":[")) in
  let closed d = nested d ^ String.concat "" (List.init d (fun _ -> "]}")) in
  check Alcotest.bool "at the limit" true
    (Result.is_ok (Json.of_string (closed (Json.max_depth / 2))));
  List.iter
    (fun (s, offset) ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "%d bytes of nesting parsed" (String.length s)
      | Error msg ->
          check Alcotest.string "fails at the limit, naming it"
            (Printf.sprintf
               "JSON parse error at offset %d: nesting deeper than %d levels"
               offset Json.max_depth)
            msg)
    [
      (closed ((Json.max_depth / 2) + 1), String.length (nested (Json.max_depth / 2)));
      (String.make (1 lsl 20) '[', Json.max_depth);
    ]

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting and durations" `Quick span_nesting;
          Alcotest.test_case "context capture" `Quick span_context_capture;
          Alcotest.test_case "context per thread" `Quick span_context_per_thread;
          Alcotest.test_case "exception outcome" `Quick with_span_on_raise;
        ] );
      ( "counters",
        [
          Alcotest.test_case "accumulation" `Quick counters_accumulate;
          Alcotest.test_case "flush dedup" `Quick flush_emits_counter_deltas_once;
          Alcotest.test_case "counter/gauge split" `Quick registry_split;
          Alcotest.test_case "gauge_set under null sink" `Quick gauge_set_bypasses_sink;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "bucket boundaries" `Quick hist_bucket_boundaries;
          Alcotest.test_case "percentiles" `Quick hist_percentiles;
          Alcotest.test_case "merge/diff/copy" `Quick hist_merge_diff;
          hist_diff_matches_window;
          Alcotest.test_case "sum" `Quick hist_sum;
          Alcotest.test_case "observe and flush" `Quick observe_and_flush_histograms;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "metric_name" `Quick metric_name_sanitized;
          Alcotest.test_case "exposition round-trip" `Quick metrics_exposition_roundtrip;
          Alcotest.test_case "json rendering" `Quick metrics_json_rendering;
          Alcotest.test_case "lint rejections" `Quick metrics_lint_rejects;
          Alcotest.test_case "snapshot wire round-trip" `Quick snapshot_wire_roundtrip;
          Alcotest.test_case "fleet exposition" `Quick fleet_exposition;
          Alcotest.test_case "fleet json" `Quick fleet_json;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "propagation" `Quick trace_propagation;
          Alcotest.test_case "remote adoption" `Quick trace_remote_adoption;
          Alcotest.test_case "cross-process merge" `Quick trace_merge_cross_process;
          Alcotest.test_case "dangling remote parent" `Quick trace_merge_dangling_remote;
          Alcotest.test_case "live report = replay" `Quick live_report_equals_replay;
          Alcotest.test_case "gauges kept per process" `Quick gauges_kept_per_process;
          Alcotest.test_case "flight recorder ring" `Quick flight_ring;
        ] );
      ( "probes",
        [
          Alcotest.test_case "built-in gauges" `Quick probe_builtin_gauges;
          Alcotest.test_case "dynamic sources" `Quick probe_dynamic_sources;
        ] );
      ("null sink", [ Alcotest.test_case "inert" `Quick null_sink_is_inert ]);
      ( "sink swap",
        [ Alcotest.test_case "set_sink after domain spawn" `Quick set_sink_after_domains ] );
      ("jsonl sink", [ Alcotest.test_case "round-trip" `Quick jsonl_roundtrip ]);
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick json_roundtrip;
          Alcotest.test_case "event round-trip" `Quick event_json_roundtrip;
          Alcotest.test_case "errors" `Quick json_rejects_garbage;
        ] );
    ]
