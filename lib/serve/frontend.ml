module Obs = Mcml_obs.Obs
module Json = Mcml_obs.Json
module Probe = Mcml_obs.Probe

type t = {
  conn_span : string;
  queue_cap : int;
  drain_flag : bool Atomic.t;
  wake_r : Unix.file_descr;  (** readable once drained; never read *)
  wake_w : Unix.file_descr;
}

type answer = Ready of Protocol.response | Pending of (unit -> Protocol.response)
type admit = (Protocol.request, Json.t * string) result -> answer

let create ~conn_span ~queue_cap =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  { conn_span; queue_cap; drain_flag = Atomic.make false; wake_r; wake_w }

(* One byte, once: the pipe stays readable, so every select on [wake_r]
   returns from then on.  No lock, so a signal handler may call it. *)
let drain t =
  if not (Atomic.exchange t.drain_flag true) then
    ignore (Unix.write_substring t.wake_w "d" 0 1)

let draining t = Atomic.get t.drain_flag

let close t =
  Atomic.set t.drain_flag true;
  Unix.close t.wake_r;
  Unix.close t.wake_w

let handle_connection t ~admit ~input ~output =
  (* the reader's span: what [admit] starts on this thread parents
     under it *)
  let conn = Obs.start t.conn_span in
  let served = ref 0 in
  let q : (unit -> Protocol.response) Queue.t = Queue.create () in
  let qm = Mutex.create () in
  let q_not_empty = Condition.create () in
  let q_not_full = Condition.create () in
  (* answers queued or being written; only the reader adds to it *)
  let unwritten = ref 0 in
  let reading_done = ref false in
  let write_failed = ref false in
  let write resp =
    if not !write_failed then
      (try
         output_string output (Protocol.response_to_string resp);
         output_char output '\n';
         flush output
       with Sys_error _ -> write_failed := true);
    incr served
  in
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
      write (answer ());
      Mutex.lock qm;
      decr unwritten;
      Mutex.unlock qm;
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
    incr unwritten;
    Condition.signal q_not_empty;
    Mutex.unlock qm
  in
  (* A ready answer with nothing before it unwritten is written here:
     the responder is idle, and stays idle while the reader, the only
     one who queues, is busy writing. *)
  let deliver = function
    | Pending answer -> enqueue answer
    | Ready resp ->
        Mutex.lock qm;
        let idle = !unwritten = 0 in
        Mutex.unlock qm;
        if idle then write resp else enqueue (Fun.const resp)
  in
  let reader = Line_reader.create input in
  let rec read_loop () =
    match Line_reader.next reader ~wake:t.wake_r with
    | None -> ()
    | Some (Ok line) when String.trim line = "" -> read_loop ()
    | Some line ->
        deliver
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

(* Accept loop: block on the listening socket and the wake pipe, so
   an idle server takes no timer wake-up and a drain is seen at once. *)
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
  let rec accept_loop () =
    match Unix.select [ lfd; t.wake_r ] [] [] (-1.0) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
    | ready, _, _ when List.mem t.wake_r ready -> ()
    | _ ->
        (match Unix.accept ~cloexec:true lfd with
        | exception Unix.Unix_error (_, _, _) -> ()
        | cfd, _ ->
            let th =
              Thread.create
                (fun () ->
                  let oc = Unix.out_channel_of_descr cfd in
                  (try handle ~input:cfd ~output:oc with _ -> ());
                  (* closes [cfd] too *)
                  try close_out oc with Sys_error _ -> ())
                ()
            in
            conns := th :: !conns);
        accept_loop ()
  in
  accept_loop ();
  Unix.close lfd;
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  List.iter Thread.join !conns;
  (* the gauges a trace ends with: scrapes sample too, but nothing
     samples on a timer *)
  Probe.sample ()
