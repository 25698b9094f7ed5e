(* The serve workload: an [mcml serve] child process and the load
   generator that drives it.

   The generator is this process, with one sender and one receiver
   thread over two connections: an "interactive" one whose requests
   carry a deadline and a "batch" one whose requests carry none.  The
   server runs out of process because, in process, the generator ran
   tens of milliseconds late at these rates and its latencies measured
   itself.  Every child runs in its own directory under the checkout,
   so its socket and traces take short relative paths. *)

module Json = Mcml_obs.Json
module Obs = Mcml_obs.Obs
module Metrics = Mcml_obs.Metrics
module Trace = Mcml_obs.Trace
module Protocol = Mcml_serve.Protocol
module Props = Mcml_props.Props
module Splitmix = Mcml_logic.Splitmix
module Bignat = Mcml_logic.Bignat

let now = Ledger.now

(* --- traffic ------------------------------------------------------------ *)

type key = { prop : Props.t; scope : int; symmetry : bool; negate : bool }

(* 16 properties × (scopes 3 and 4 × symmetry × negation, plus scope 5
   × symmetry, not negated): 160 keys.  Negated scope-5 keys are left
   out because one cold count among them takes tens of seconds. *)
let keys =
  Array.of_list
    (List.concat_map
       (fun prop ->
         List.concat_map
           (fun scope ->
             List.concat_map
               (fun symmetry ->
                 List.map (fun negate -> { prop; scope; symmetry; negate }) [ false; true ])
               [ false; true ])
           [ 3; 4 ]
         @ List.map (fun symmetry -> { prop; scope = 5; symmetry; negate = false }) [ false; true ])
       Props.all)

(* Popularity ranks: one fixed shuffle of the keys, the same under
   every seed. *)
let by_rank =
  let a = Array.copy keys in
  Ledger.shuffle (Splitmix.create 160) a;
  a

(* The mix of [n] requests: the key of rank r appears in proportion to
   r^-1.1 (Zipf), rounded by largest remainder, and the requests
   alternate between the interactive and the batch connection in rank
   order.  Every seed sends this same mix, so a seed varies the order
   and the arrival times but not which counts make up the tail. *)
let mix n =
  let w = Array.init (Array.length by_rank) (fun r -> Float.pow (float_of_int (r + 1)) (-1.1)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let exact = Array.map (fun x -> float_of_int n *. x /. total) w in
  let copies = Array.map int_of_float exact in
  let short = n - Array.fold_left ( + ) 0 copies in
  let remainder r = exact.(r) -. Float.of_int copies.(r) in
  List.iteri
    (fun i r -> if i < short then copies.(r) <- copies.(r) + 1)
    (List.stable_sort (fun a b -> compare (remainder b) (remainder a)) (List.init (Array.length w) Fun.id));
  Array.of_list
    (List.mapi
       (fun i key -> (key, i mod 2 = 0))
       (List.concat (List.mapi (fun r c -> List.init c (fun _ -> by_rank.(r))) (Array.to_list copies))))

let deadline_ms = 1000.0
let open_rate = 60.0
let window = 16

type req = {
  id : int;
  key : key;
  interactive : bool;
  at : float;  (** due time, seconds after the phase starts (open loop) *)
  line : string;  (** the encoded request, newline-terminated *)
}

(* Codec timings, microseconds, taken around the protocol calls. *)
type codec = { mutable encode_us : float list; mutable decode_us : float list }

let encode ~id key ~interactive =
  Json.to_string
    (Protocol.request_to_json
       {
         Protocol.id = Json.Int id;
         trace = None;
         deadline_ms = (if interactive then Some deadline_ms else None);
         kind =
           Protocol.Count
             {
               Protocol.prop = key.prop;
               scope = Some key.scope;
               symmetry = key.symmetry;
               negate = key.negate;
               backend = Mcml_counting.Counter.Exact;
               budget = 60.0;
               seed = 0;
             };
       })
  ^ "\n"

(* The mix of [n] requests in a seeded order, with Poisson arrivals at
   [rate] (0 = all due at once). *)
let plan codec rng ~first_id ~n ~rate =
  let m = mix n in
  Ledger.shuffle rng m;
  let at = ref 0.0 in
  Array.mapi
    (fun i (key, interactive) ->
      if rate > 0.0 then at := !at -. (log (1.0 -. Splitmix.float rng) /. rate);
      let id = first_id + i in
      let s, line = Ledger.timed (fun () -> encode ~id key ~interactive) in
      codec.encode_us <- (s *. 1e6) :: codec.encode_us;
      { id; key; interactive; at = !at; line })
    m

(* --- connections ---------------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  pending : int Queue.t;  (** plan indices awaiting a response, in order *)
  buf : Buffer.t;  (** an incomplete response line *)
  chunk : Bytes.t;
}

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd
  with e ->
    Unix.close fd;
    raise e

let open_conn path =
  { fd = connect path; pending = Queue.create (); buf = Buffer.create 4096; chunk = Bytes.create 65536 }

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

(* The complete lines now readable; [End_of_file] when the server hung up. *)
let read_lines c =
  let k = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
  if k = 0 then raise End_of_file;
  Buffer.add_subbytes c.buf c.chunk 0 k;
  let s = Buffer.contents c.buf in
  match String.rindex_opt s '\n' with
  | None -> []
  | Some last ->
      Buffer.clear c.buf;
      Buffer.add_string c.buf (String.sub s (last + 1) (String.length s - last - 1));
      String.split_on_char '\n' (String.sub s 0 last)

let select fds timeout =
  match Unix.select fds [] [] timeout with
  | r, _, _ -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

(* One request/response exchange on a fresh connection. *)
let exchange path kind =
  let fd = connect path in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let req = { Protocol.id = Json.Int 0; trace = None; deadline_ms = None; kind } in
      write_all fd (Json.to_string (Protocol.request_to_json req) ^ "\n") 0;
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      match Protocol.response_of_string (input_line (Unix.in_channel_of_descr fd)) with
      | Ok { Protocol.body = Ok payload; _ } -> Ok payload
      | Ok { Protocol.body = Error (code, msg); _ } -> Error (Protocol.code_name code ^ ": " ^ msg)
      | Error msg -> Error msg)

(* --- phases --------------------------------------------------------------- *)

(* Absolute monotonic times; [due] is the send time in a closed loop. *)
type outcome = {
  mutable due : float;
  mutable sent : float;
  mutable received : float;
  mutable answer : (Bignat.t, string) result option;  (** [None]: no response *)
}

let outcomes n =
  Array.init n (fun _ -> { due = 0.0; sent = 0.0; received = 0.0; answer = None })

let latency_ms o = (o.received -. o.due) *. 1000.0

let decode codec (r : req) line =
  let s, parsed = Ledger.timed (fun () -> Protocol.response_of_string line) in
  codec.decode_us <- (s *. 1e6) :: codec.decode_us;
  match parsed with
  | Error msg -> Error ("malformed response: " ^ msg)
  | Ok resp when resp.Protocol.rid <> Json.Int r.id -> Error "response out of order"
  | Ok { Protocol.body = Error (code, msg); _ } -> Error (Protocol.code_name code ^ ": " ^ msg)
  | Ok { Protocol.body = Ok payload; _ } ->
      let count =
        match Json.member "count" payload with Some (Json.Str s) -> Bignat.of_string s | _ -> None
      in
      Option.to_result ~none:("no count in " ^ Json.to_string payload) count

let conn_of conns (r : req) = if r.interactive then conns.(0) else conns.(1)

(* Read responses until [n] arrived, [deadline] passed or a server hung
   up; [on_response c i t] runs for plan index [i] received at [t]. *)
let receive conns ~n ~deadline ~on_response m =
  let received = ref 0 in
  (try
     while !received < n && now () < deadline do
       List.iter
         (fun fd ->
           let c = List.find (fun c -> c.fd = fd) (Array.to_list conns) in
           List.iter
             (fun line ->
               let t = now () in
               Mutex.lock m;
               let i = Queue.take_opt c.pending in
               Mutex.unlock m;
               Option.iter
                 (fun i ->
                   on_response c i t line;
                   incr received)
                 i)
             (read_lines c))
         (select (Array.to_list (Array.map (fun c -> c.fd) conns)) 0.5)
     done
   with End_of_file -> ());
  !received

type open_stats = { lag_ms : float array; max_outstanding : int }

(* Open loop: each request is sent at its due time whatever is still
   outstanding, and its latency runs from that due time, so a stall
   also charges the requests queued behind it. *)
let open_loop codec conns (plan : req array) (out : outcome array) =
  let n = Array.length plan in
  let m = Mutex.create () in
  let outstanding = ref 0 and max_outstanding = ref 0 in
  let t0 = now () +. 0.01 in
  Array.iteri (fun i r -> out.(i).due <- t0 +. r.at) plan;
  let sender =
    Thread.create
      (fun () ->
        Array.iteri
          (fun i r ->
            let wait = out.(i).due -. now () in
            if wait > 0.0 then Unix.sleepf wait;
            let c = conn_of conns r in
            Mutex.lock m;
            Queue.add i c.pending;
            incr outstanding;
            max_outstanding := max !max_outstanding !outstanding;
            Mutex.unlock m;
            out.(i).sent <- now ();
            write_all c.fd r.line 0)
          plan)
      ()
  in
  let deadline = out.(n - 1).due +. 60.0 in
  let _ : int =
    receive conns ~n ~deadline m ~on_response:(fun _ i t line ->
        Mutex.lock m;
        decr outstanding;
        Mutex.unlock m;
        out.(i).received <- t;
        out.(i).answer <- Some (decode codec plan.(i) line))
  in
  Thread.join sender;
  {
    lag_ms = Array.map (fun o -> (o.sent -. o.due) *. 1000.0) out;
    max_outstanding = !max_outstanding;
  }

(* Closed loop: [window] requests outstanding per connection; returns
   the wall time of the whole plan. *)
let closed_loop codec conns (plan : req array) (out : outcome array) =
  let todo = Array.map (fun _ -> Queue.create ()) conns in
  Array.iteri (fun i r -> Queue.add i todo.(if r.interactive then 0 else 1)) plan;
  let m = Mutex.create () in
  let send k =
    Option.iter
      (fun i ->
        out.(i).due <- now ();
        out.(i).sent <- out.(i).due;
        Queue.add i conns.(k).pending;
        write_all conns.(k).fd plan.(i).line 0)
      (Queue.take_opt todo.(k))
  in
  let t0 = now () in
  Array.iteri (fun k _ -> for _ = 1 to window do send k done) conns;
  let _ : int =
    receive conns ~n:(Array.length plan) ~deadline:(t0 +. 120.0) m
      ~on_response:(fun c i t line ->
        out.(i).received <- t;
        out.(i).answer <- Some (decode codec plan.(i) line);
        send (if c == conns.(0) then 0 else 1))
  in
  now () -. t0

(* --- child processes ---------------------------------------------------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Start [exe args] with [dir] as its working directory, its temp dir
   inside [dir] and its stdout on our stderr: our stdout carries the
   result. *)
let spawn ~exe ~dir args =
  let env =
    Array.append
      [| "TMPDIR=" ^ Filename.concat (Sys.getcwd ()) dir |]
      (Array.of_list
         (List.filter
            (fun v -> not (String.starts_with ~prefix:"TMPDIR=" v))
            (Array.to_list (Unix.environment ()))))
  in
  Unix.create_process_env "/bin/sh"
    (Array.of_list ([ "/bin/sh"; "-c"; {|cd "$0" && exec "$@"|}; dir; exe ] @ args))
    env Unix.stdin Unix.stderr Unix.stderr

(* Child pids of [pid] (all its threads), from procfs. *)
let children pid =
  let task = Printf.sprintf "/proc/%d/task" pid in
  match Sys.readdir task with
  | tids ->
      List.concat_map
        (fun tid ->
          match In_channel.with_open_text (Printf.sprintf "%s/%s/children" task tid) In_channel.input_all with
          | s -> List.filter_map int_of_string_opt (String.split_on_char ' ' (String.trim s))
          | exception Sys_error _ -> [])
        (Array.to_list tids)
  | exception Sys_error _ -> []

(* SIGTERM lets a server drain and flush its trace.  A child still
   running after 20 s is killed with its descendants. *)
let stop pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 20.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        let rec tree p = p :: List.concat_map tree (children p) in
        let pids = tree pid in
        List.iter (fun p -> try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ()) pids;
        ignore (Unix.waitpid [] pid);
        List.iter
          (fun p ->
            let gone = now () +. 5.0 in
            while Sys.file_exists (Printf.sprintf "/proc/%d" p) && now () < gone do
              Unix.sleepf 0.01
            done)
          pids
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

type server = { pid : int; dir : string }

let socket s = Filename.concat s.dir "s.sock"

(* Every key once, as an interactive request: fills the server's
   translation tables, whose state would otherwise make each request's
   cost depend on the order of the requests before it, without leaving
   a cache entry a batch request could hit (a deadline-clamped budget
   is part of the count-cache key). *)
let warm s =
  let conns = Array.init 2 (fun _ -> open_conn (socket s)) in
  Fun.protect ~finally:(fun () -> Array.iter (fun c -> Unix.close c.fd) conns) @@ fun () ->
  let reqs =
    Array.mapi
      (fun id key -> { id; key; interactive = true; at = 0.0; line = encode ~id key ~interactive:true })
      keys
  in
  ignore (closed_loop { encode_us = []; decode_us = [] } conns reqs (outcomes (Array.length reqs)))

external clock_ticks : unit -> int = "perfbench_clock_ticks"

(* Processor seconds (user + system) the server has used so far.
   procfs counts every thread of the process, exited ones too, in clock
   ticks. *)
let server_cpu s =
  let stat = In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" s.pid) In_channel.input_all in
  (* the fields after the command name, which is parenthesised and may
     hold spaces: state is field 3, utime 14, stime 15 *)
  let i = String.rindex stat ')' + 2 in
  let f = Array.of_list (String.split_on_char ' ' (String.sub stat i (String.length stat - i))) in
  float_of_int (int_of_string f.(11) + int_of_string f.(12)) /. float_of_int (clock_ticks ())

(* Spawn, wait until [health] answers "ok", and warm. *)
let start ~exe ~dir ~traced =
  mkdir_p dir;
  let args =
    [ "serve"; "--jobs"; "2"; "--socket"; "s.sock" ] @ if traced then [ "--trace-dir"; "trace" ] else []
  in
  let t0 = now () in
  let s = { pid = spawn ~exe ~dir args; dir } in
  let rec wait_healthy () =
    let healthy =
      Sys.file_exists (socket s)
      &&
      match exchange (socket s) Protocol.Health with
      | Ok payload -> Json.member "status" payload = Some (Json.Str "ok")
      | Error _ -> false
      | exception (Unix.Unix_error _ | End_of_file | Sys_error _) -> false
    in
    if not healthy then
      if now () -. t0 > 60.0 then begin
        stop s.pid;
        failwith "server did not become healthy within 60 s"
      end
      else begin
        Unix.sleepf 0.001;
        wait_healthy ()
      end
  in
  wait_healthy ();
  warm s;
  s

(* [Trace.load_dir], except that a span naming a parent its stream has
   not started yet becomes a root.  A server's connection threads share
   their domain's current-span slot, so a span can adopt another
   connection's span as parent before that span's start is written, and
   the strict loader rejects the whole trace.  Returns the trace and the
   number of spans repaired. *)
let load_trace dir =
  let repaired = ref 0 in
  let stream file =
    let started = Hashtbl.create 4096 and orphans = Hashtbl.create 8 in
    let repair = function
      | Obs.Span_start r -> (
          let orphan = match r.parent with Some p -> not (Hashtbl.mem started p) | None -> false in
          Hashtbl.replace started r.id ();
          if not orphan then Obs.Span_start r
          else begin
            incr repaired;
            Hashtbl.replace orphans r.id ();
            Obs.Span_start { r with parent = None }
          end)
      | Obs.Span_end r when Hashtbl.mem orphans r.id -> Obs.Span_end { r with parent = None }
      | e -> e
    in
    let event line =
      match Result.bind (Json.of_string line) Obs.event_of_json with
      | Ok e -> repair e
      | Error msg -> raise (Ledger.Invalid_run (Printf.sprintf "trace %s: %s" file msg))
    in
    (file, List.map event (In_channel.with_open_text (Filename.concat dir file) In_channel.input_lines))
  in
  let files = List.filter (fun f -> Filename.check_suffix f ".jsonl") (Array.to_list (Sys.readdir dir)) in
  match Trace.merge (List.map stream (List.sort compare files)) with
  | Ok t -> (t, !repaired)
  | Error errs -> raise (Ledger.Invalid_run ("trace: " ^ String.concat "; " errs))

(* The server's full-fidelity registry snapshot. *)
let scrape s =
  match exchange (socket s) (Protocol.Metrics `Snapshot) with
  | Ok payload -> (
      match Metrics.snapshot_of_wire payload with
      | Ok snap -> snap
      | Error msg -> failwith ("metrics snapshot: " ^ msg))
  | Error msg -> failwith ("metrics scrape: " ^ msg)

(* --- the workload --------------------------------------------------------- *)

external children_max_rss : unit -> float = "perfbench_children_max_rss"

(* One trial: a fresh server, set up and warmed, takes the open loop
   (between two metrics scrapes in traced runs) and the saturation
   phase. *)
type trial = {
  setup_cpu : float;  (** the server's processor seconds from spawn to warmed *)
  open_plan : req array;
  opened : outcome array;
  open_stats : open_stats;
  open_cpu : float;  (** ... over the open loop *)
  window : (Metrics.snapshot * Metrics.snapshot) option;
      (** traced runs: the server's registry just before and just after
          the open loop *)
  sat_plan : req array;
  saturated : outcome array;
  saturation_wall : float;
  sat_cpu : float;  (** ... over the saturation phase *)
  trace : Trace.t option;
}

(* Trials per run, each with an open loop of an eighth of --seconds and
   a saturation phase of 15 requests per second of --seconds.  A run
   reports the median set-up and the least processor time of each phase
   over its trials (Ledger.best). *)
let trials = 3

(* Every answer against its reference; one problem list per request. *)
let check (plan : req array) (out : outcome array) =
  Array.to_list
    (Array.mapi
       (fun i o ->
         let r = plan.(i) in
         match o.answer with
         | None -> [ Printf.sprintf "request %d: no response" r.id ]
         | Some (Error e) -> [ Printf.sprintf "request %d: %s" r.id e ]
         | Some (Ok n) ->
             Oracle.check_count r.key.prop ~scope:r.key.scope ~symmetry:r.key.symmetry
               ~negate:r.key.negate n)
       out)

(* The histogram [name] over the open loop. *)
let hist ((before : Metrics.snapshot), (after : Metrics.snapshot)) name =
  match (List.assoc_opt name after.Metrics.histograms, List.assoc_opt name before.Metrics.histograms) with
  | Some h, Some h0 -> Obs.Histogram.diff h h0
  | Some h, None -> h
  | None, _ -> Obs.Histogram.create ()

(* How much the gauge [name] grew over the open loop. *)
let gauge_delta ((before : Metrics.snapshot), (after : Metrics.snapshot)) name =
  let g (s : Metrics.snapshot) = Option.value (List.assoc_opt name s.Metrics.gauges) ~default:0.0 in
  g after -. g before

(* Children's directories live here, inside the checkout (git-ignored). *)
let tmp_root = ".perfbench_tmp"

let run ~exe ~seed ~seconds ~traced =
  let root = Filename.concat tmp_root (Printf.sprintf "serve-%d" (Unix.getpid ())) in
  let live = ref None in
  Fun.protect
    ~finally:(fun () ->
      Option.iter stop !live;
      rm_rf root;
      try Unix.rmdir tmp_root with Unix.Unix_error _ -> ())
  @@ fun () ->
  let codec = { encode_us = []; decode_us = [] } in
  let rng = Splitmix.create seed in
  let n_open = int_of_float (float_of_int seconds *. open_rate /. 8.0) in
  let plans () =
    let open_plan = plan codec rng ~first_id:0 ~n:n_open ~rate:open_rate in
    (open_plan, plan codec rng ~first_id:n_open ~n:(15 * seconds) ~rate:0.0)
  in
  let trial k (open_plan, sat_plan) ~traced_server =
    Calib.probe_both ();
    let s = start ~exe ~dir:(Filename.concat root (Printf.sprintf "trial-%d" k)) ~traced:traced_server in
    live := Some s.pid;
    let setup_cpu = server_cpu s in
    Calib.probe_both ();
    let conns = Array.init 2 (fun _ -> open_conn (socket s)) in
    let opened = outcomes n_open and saturated = outcomes (Array.length sat_plan) in
    let scrape () = if traced then Some (scrape s) else None in
    let open_stats, open_cpu, window, saturation_wall, sat_cpu =
      Fun.protect ~finally:(fun () -> Array.iter (fun c -> Unix.close c.fd) conns) @@ fun () ->
      let before = scrape () in
      let c0 = server_cpu s in
      let open_stats = open_loop codec conns open_plan opened in
      let c1 = server_cpu s in
      Calib.probe_both ();
      let window = Option.map (fun b -> (b, Option.get (scrape ()))) before in
      let c2 = server_cpu s in
      let saturation_wall = closed_loop codec conns sat_plan saturated in
      let c3 = server_cpu s in
      Calib.probe_both ();
      (open_stats, c1 -. c0, window, saturation_wall, c3 -. c2)
    in
    stop s.pid;
    live := None;
    let trace =
      if not traced_server then None
      else begin
        let t, repaired = load_trace (Filename.concat s.dir "trace") in
        if repaired > 0 then
          Printf.eprintf "perfbench: %d span(s) named a parent not yet started; made roots\n" repaired;
        Some t
      end
    in
    {
      setup_cpu;
      open_plan;
      opened;
      open_stats;
      open_cpu;
      window;
      sat_plan;
      saturated;
      saturation_wall;
      sat_cpu;
      trace;
    }
  in
  (* a traced run compares one untraced and one traced trial on the same plans *)
  let ts =
    if not traced then List.init trials (fun k -> trial k (plans ()) ~traced_server:false)
    else
      let p = plans () in
      [ trial 0 p ~traced_server:false; trial 1 p ~traced_server:true ]
  in
  let lag_p99 =
    Ledger.percentile (List.concat_map (fun t -> Array.to_list t.open_stats.lag_ms) ts) 0.99
  in
  let max_outstanding = List.fold_left (fun m t -> max m t.open_stats.max_outstanding) 0 ts in
  (* a late generator or a growing backlog spoils the wall-clock
     latencies, which only the ledger reports *)
  if traced && lag_p99 > 10.0 then
    raise (Ledger.Invalid_run (Printf.sprintf "generator lag p99 %.1f ms > 10 ms" lag_p99));
  if traced && max_outstanding > 32 then
    raise
      (Ledger.Invalid_run
         (Printf.sprintf "backlog grew to %d requests at %.0f req/s" max_outstanding open_rate));
  let latencies ?client t =
    List.filter_map
      (fun (r, o) ->
        match (client, o.answer) with
        | _, None -> None
        | Some c, _ when c <> r.interactive -> None
        | _ -> Some (latency_ms o))
      (List.combine (Array.to_list t.open_plan) (Array.to_list t.opened))
  in
  let metrics =
    match ts with
    | [ ({ window = Some w; _ } as u); ({ trace = Some trace; window = Some tw; _ } as t) ] ->
        let p q h = Obs.Histogram.percentile h q in
        let request = hist w "serve.request" in
        let queue = hist w "exec.pool.queue_wait_ms" in
        (* open-loop round trips the server's request spans do not cover *)
        let rtt =
          Array.fold_left (fun acc o -> acc +. ((o.received -. o.sent) *. 1000.0)) 0.0 t.opened
        in
        let covered = Obs.Histogram.sum (hist tw "serve.request") in
        let words =
          gauge_delta w "gc.minor_words" +. gauge_delta w "gc.major_words"
          -. gauge_delta w "gc.promoted_words"
        in
        Ledger.layer_metrics
          (Ledger.sources_of_trace trace
             ~extra:
               [
                 ("exec.pool.queue_wait.p50_ms", p 0.5 queue);
                 ("exec.pool.queue_wait.p99_ms", p 0.99 queue);
                 ("serve.request.p50_ms", p 0.5 request);
                 ("serve.request.p99_ms", p 0.99 request);
                 ("protocol.encode.p50_us", Ledger.median codec.encode_us);
                 ("protocol.decode.p50_us", Ledger.median codec.decode_us);
                 ("latency.p50_ms", Ledger.median (latencies u));
                 ("latency.p95_ms", Ledger.percentile (latencies u) 0.95);
                 ("client.deadline.p50_ms", Ledger.median (latencies ~client:true u));
                 ("client.batch.p50_ms", Ledger.median (latencies ~client:false u));
                 ("loadgen.lag.p99_ms", lag_p99);
                 ("loadgen.outstanding.max", float_of_int max_outstanding);
                 ("runtime.alloc_mb", words *. float_of_int (Sys.word_size / 8) /. 1e6);
                 ("runtime.gc.major_collections", gauge_delta w "gc.major_collections");
                 ("trace.unattributed_ms", (rtt -. covered) /. float_of_int n_open);
                 ("trace.overhead_frac", (t.saturation_wall /. u.saturation_wall) -. 1.0);
               ])
    | _ ->
        let best f = Calib.to_ref (Ledger.best (List.map f ts)) in
        Ledger.e2e
          ~setup_s:(Calib.to_ref (Ledger.median (List.map (fun t -> t.setup_cpu) ts)))
          ~cpu_s:(best (fun t -> t.sat_cpu))
          ~op_cpu_ms:(best (fun t -> t.open_cpu) *. 1000.0 /. float_of_int n_open)
          ~max_rss_mb:(children_max_rss () /. 1e6)
  in
  Ledger.result_of
    (List.concat_map (fun t -> check t.open_plan t.opened @ check t.sat_plan t.saturated) ts)
    metrics
