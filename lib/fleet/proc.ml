module Obs = Mcml_obs.Obs
module Protocol = Mcml_serve.Protocol
module Json = Mcml_obs.Json

type config = {
  exe : string;
  shards : int;
  dir : string;
  jobs : int;
  admission : int;
  cache_dir : string option;
  trace_dir : string option;
  call_deadline_s : float;
  backoff_min_s : float;
  backoff_max_s : float;
  stable_after_s : float;
}

let default_config ~exe ~dir =
  {
    exe;
    shards = 2;
    dir;
    jobs = 1;
    admission = 64;
    cache_dir = None;
    trace_dir = None;
    call_deadline_s = 30.0;
    backoff_min_s = 0.1;
    backoff_max_s = 2.0;
    stable_after_s = 5.0;
  }

type shard = {
  id : int;
  socket : string;
  m : Mutex.t;
  mutable pid : int;  (** -1 between reap and respawn *)
  mutable restarts : int;
}

type t = {
  cfg : config;
  stopping : bool Atomic.t;
  procs : shard array;
  mutable supervisors : Thread.t array;
}

let socket_path cfg id = Filename.concat cfg.dir (Printf.sprintf "shard-%d.sock" id)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let spawn cfg (s : shard) =
  (try Unix.unlink s.socket with Unix.Unix_error _ -> ());
  let argv =
    [
      cfg.exe; "serve";
      "--socket"; s.socket;
      "--shard-id"; string_of_int s.id;
      "-j"; string_of_int cfg.jobs;
      "--admission"; string_of_int cfg.admission;
    ]
    @ (match cfg.cache_dir with
      | None -> []
      | Some d ->
          [ "--cache-dir"; Filename.concat d (Printf.sprintf "shard-%d" s.id) ])
    @ (match cfg.trace_dir with None -> [] | Some d -> [ "--trace-dir"; d ])
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close devnull)
    (fun () ->
      (* shard stderr is inherited: startup/drain lines land in the
         router's stderr, one stream to read when debugging a fleet *)
      Unix.create_process cfg.exe (Array.of_list argv) devnull Unix.stdout
        Unix.stderr)

(* One supervisor thread per shard: reap, back off, respawn.  The
   backoff doubles from [backoff_min_s] up to [backoff_max_s] across
   consecutive fast crashes and resets once a child survives
   [stable_after_s] — a crash loop is throttled, a one-off crash heals
   in ~100ms. *)
let supervise t (s : shard) =
  let backoff = ref t.cfg.backoff_min_s in
  let rec loop () =
    let pid =
      Mutex.lock s.m;
      let p = s.pid in
      Mutex.unlock s.m;
      p
    in
    if pid < 0 then ()
    else begin
      let started = Obs.monotonic_s () in
      match Unix.waitpid [] pid with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error _ -> ()
      | _, _status ->
          Mutex.lock s.m;
          s.pid <- -1;
          Mutex.unlock s.m;
          if not (Atomic.get t.stopping) then begin
            if Obs.monotonic_s () -. started >= t.cfg.stable_after_s then
              backoff := t.cfg.backoff_min_s;
            Thread.delay !backoff;
            backoff := Float.min t.cfg.backoff_max_s (!backoff *. 2.0);
            if not (Atomic.get t.stopping) then begin
              let pid = spawn t.cfg s in
              Mutex.lock s.m;
              s.pid <- pid;
              s.restarts <- s.restarts + 1;
              Mutex.unlock s.m;
              Obs.add "fleet.shard.restarts" 1;
              loop ()
            end
          end
    end
  in
  loop ()

let start cfg =
  let cfg = { cfg with shards = max 1 cfg.shards; jobs = max 1 cfg.jobs } in
  mkdir_p cfg.dir;
  let procs =
    Array.init cfg.shards (fun id ->
        {
          id;
          socket = socket_path cfg id;
          m = Mutex.create ();
          pid = -1;
          restarts = 0;
        })
  in
  Array.iter (fun s -> s.pid <- spawn cfg s) procs;
  let t = { cfg; stopping = Atomic.make false; procs; supervisors = [||] } in
  t.supervisors <- Array.map (fun s -> Thread.create (supervise t) s) procs;
  t

let shards t = t.cfg.shards
let sockets t = Array.map (fun s -> s.socket) t.procs

let restarts t =
  Array.map
    (fun s ->
      Mutex.lock s.m;
      let r = s.restarts in
      Mutex.unlock s.m;
      r)
    t.procs

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

(* One request/response exchange on a fresh connection.  [None] means
   "retry": connection refused (shard restarting), write failed or the
   shard died before answering — the request is idempotent (counts are
   pure functions of their key), so the caller loops until the
   supervisor has brought the shard back or the deadline passes.  An
   overlong response line is a malformed answer, not an outage. *)
let attempt t (s : shard) line =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_close_on_exec fd;
  match Unix.connect fd (Unix.ADDR_UNIX s.socket) with
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None
  | () ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          match write_all fd (line ^ "\n") with
          | exception Unix.Unix_error _ -> None
          | () ->
              let reader = Mcml_serve.Line_reader.create fd in
              Option.map
                (Result.map_error (( ^ ) "malformed shard response: "))
                (Mcml_serve.Line_reader.next reader ~stop:(fun () ->
                     Atomic.get t.stopping)))

let call ?deadline_s t ~shard line =
  let deadline_s = Option.value deadline_s ~default:t.cfg.call_deadline_s in
  let s = t.procs.(shard) in
  let deadline = Obs.monotonic_s () +. deadline_s in
  let rec loop () =
    match attempt t s line with
    | Some resp -> resp
    | None ->
        if Atomic.get t.stopping then Error "fleet is shutting down"
        else if Obs.monotonic_s () >= deadline then
          Error (Printf.sprintf "shard %d unavailable for %.3gs" shard deadline_s)
        else begin
          Obs.add "fleet.shard.call_retries" 1;
          Thread.delay 0.05;
          loop ()
        end
  in
  loop ()

let dispatch ?deadline_s t shard (req : Protocol.request) =
  let line = Json.to_string (Protocol.request_to_json req) in
  match call ?deadline_s t ~shard line with
  | Error msg -> Protocol.err ~id:req.Protocol.id Protocol.Internal msg
  | Ok resp_line -> (
      match Protocol.response_of_string resp_line with
      | Ok r -> r
      | Error msg ->
          Protocol.err ~id:req.Protocol.id Protocol.Internal
            ("malformed shard response: " ^ msg))

let stop t =
  Atomic.set t.stopping true;
  Array.iter
    (fun s ->
      Mutex.lock s.m;
      let pid = s.pid in
      Mutex.unlock s.m;
      if pid > 0 then try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
    t.procs;
  Array.iter Thread.join t.supervisors
