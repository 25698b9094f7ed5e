module Obs = Mcml_obs.Obs
module Json = Mcml_obs.Json
module Probe = Mcml_obs.Probe

type t = {
  conn_span : string;
  queue_cap : int;
  probe_interval_s : float;
  drain_flag : bool Atomic.t;
}

type admit = (Protocol.request, Json.t * string) result -> unit -> Protocol.response

let create ~conn_span ~queue_cap ~probe_interval_s =
  {
    conn_span;
    queue_cap;
    probe_interval_s;
    drain_flag = Atomic.make false;
  }

let drain t = Atomic.set t.drain_flag true
let draining t = Atomic.get t.drain_flag

let handle_connection t ~admit ~input ~output =
  (* the reader's span: what [admit] starts on this thread parents
     under it *)
  let conn = Obs.start t.conn_span in
  let served = ref 0 in
  let q : (unit -> Protocol.response) Queue.t = Queue.create () in
  let qm = Mutex.create () in
  let q_not_empty = Condition.create () in
  let q_not_full = Condition.create () in
  let reading_done = ref false in
  let write_failed = ref false in
  let rec respond () =
    Mutex.lock qm;
    while Queue.is_empty q && not !reading_done do
      Condition.wait q_not_empty qm
    done;
    if Queue.is_empty q then Mutex.unlock qm (* reading done, all written *)
    else begin
      let answer = Queue.pop q in
      Condition.signal q_not_full;
      Mutex.unlock qm;
      let resp = answer () in
      if not !write_failed then
        (try
           output_string output (Protocol.response_to_string resp);
           output_char output '\n';
           flush output
         with Sys_error _ -> write_failed := true);
      incr served;
      respond ()
    end
  in
  let responder = Thread.create respond () in
  let enqueue answer =
    Mutex.lock qm;
    while Queue.length q >= t.queue_cap && not (draining t) do
      Condition.wait q_not_full qm
    done;
    Queue.push answer q;
    Condition.signal q_not_empty;
    Mutex.unlock qm
  in
  let reader = Line_reader.create input in
  let rec read_loop () =
    match Line_reader.next reader ~stop:(fun () -> draining t) with
    | None -> ()
    | Some (Ok line) when String.trim line = "" -> read_loop ()
    | Some line ->
        enqueue
          (admit
             (match line with
             | Ok line -> Protocol.request_of_string line
             | Error msg -> Error (Json.Null, msg)));
        read_loop ()
  in
  read_loop ();
  Mutex.lock qm;
  reading_done := true;
  Condition.broadcast q_not_empty;
  Mutex.unlock qm;
  Thread.join responder;
  (try flush output with Sys_error _ -> ());
  Obs.finish ~attrs:[ ("responses", Obs.Int !served) ] conn

(* Accept loop: poll the listening socket so the drain flag is noticed
   within 50ms even when no client ever connects. *)
let serve_unix t ~path handle =
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* Child processes (a fleet's shard respawns) must not inherit these
     sockets: one holding a dup of a client connection would keep the
     client from ever seeing EOF. *)
  Unix.set_close_on_exec lfd;
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 64;
  (* touched by this thread alone *)
  let conns = ref [] in
  (* the accept loop doubles as the probe ticker: it already wakes
     every 50ms to poll the drain flag, so GC/rusage/pool gauges stay
     at most [probe_interval_s] stale even while no client scrapes *)
  let last_probe = ref neg_infinity in
  let rec accept_loop () =
    if not (draining t) then begin
      (if t.probe_interval_s > 0.0 then
         let now = Obs.monotonic_s () in
         if now -. !last_probe >= t.probe_interval_s then begin
           last_probe := now;
           Probe.sample ()
         end);
      (match Unix.select [ lfd ] [] [] 0.05 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [], _, _ -> ()
      | _ -> (
          match Unix.accept lfd with
          | exception Unix.Unix_error (_, _, _) -> ()
          | cfd, _ ->
              Unix.set_close_on_exec cfd;
              let th =
                Thread.create
                  (fun () ->
                    let oc = Unix.out_channel_of_descr cfd in
                    (try handle ~input:cfd ~output:oc with _ -> ());
                    (* closes [cfd] too *)
                    try close_out oc with Sys_error _ -> ())
                  ()
              in
              conns := th :: !conns));
      accept_loop ()
    end
  in
  accept_loop ();
  Unix.close lfd;
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  List.iter Thread.join !conns
