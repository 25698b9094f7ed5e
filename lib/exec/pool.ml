module Obs = Mcml_obs.Obs

(* A queued task is an already-wrapped closure: running it settles its
   future (normally or exceptionally).  The queue never holds user
   thunks directly, so a popped task can be executed by any domain — a
   worker, or a caller helping in [await] / overflowing in [submit]. *)
type task = { run : unit -> unit }

type t = {
  jobs : int;
  bound : int;
  m : Mutex.t;
  not_empty : Condition.t;
  queue : task Queue.t;
  mutable live : bool;
  mutable workers : unit Domain.t list;
}

type 'a state =
  | Pending  (** queued or running *)
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type 'a future = {
  fm : Mutex.t;
  fc : Condition.t;
  mutable st : 'a state;
  fpool : t option;  (** [Some] iff the task may sit in that pool's queue *)
}

let fulfill fut st =
  Mutex.lock fut.fm;
  fut.st <- st;
  Condition.broadcast fut.fc;
  Mutex.unlock fut.fm

(* Runs on whichever domain picked the task up.  [ctx] is the
   submitter's span context, reinstated around the thunk so worker-side
   spans parent under the span that submitted them; [submitted_m] (when
   telemetry is on) feeds the queue-wait histogram. *)
let run_task fut ctx submitted_m thunk () =
  (match submitted_m with
  | Some t0 when Obs.enabled () ->
      Obs.observe "exec.pool.queue_wait_ms" ((Obs.monotonic_s () -. t0) *. 1000.0)
  | _ -> ());
  let timed = Obs.enabled () in
  let run0 = if timed then Obs.monotonic_s () else 0.0 in
  let observe_run () =
    if timed then Obs.observe "exec.pool.run_ms" ((Obs.monotonic_s () -. run0) *. 1000.0)
  in
  match Obs.with_context ctx thunk with
  | v ->
      observe_run ();
      fulfill fut (Done v);
      Obs.add "exec.tasks.completed" 1
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      observe_run ();
      fulfill fut (Failed (e, bt));
      Obs.add "exec.tasks.failed" 1

let create ?queue_bound ~jobs () =
  let jobs = max 1 jobs in
  let bound = match queue_bound with Some b -> max 1 b | None -> 4 * jobs in
  let p =
    {
      jobs;
      bound;
      m = Mutex.create ();
      not_empty = Condition.create ();
      queue = Queue.create ();
      live = true;
      workers = [];
    }
  in
  Obs.gauge "exec.pool.jobs" (float_of_int jobs);
  if jobs > 1 then begin
    let rec worker_loop () =
      Mutex.lock p.m;
      while Queue.is_empty p.queue && p.live do
        Condition.wait p.not_empty p.m
      done;
      if Queue.is_empty p.queue then Mutex.unlock p.m (* shut down, drained *)
      else begin
        let t = Queue.pop p.queue in
        let depth = Queue.length p.queue in
        Mutex.unlock p.m;
        if Obs.enabled () then
          Obs.gauge "exec.pool.queue_depth" (float_of_int depth);
        t.run ();
        worker_loop ()
      end
    in
    p.workers <- List.init jobs (fun _ -> Domain.spawn worker_loop)
  end;
  p

let jobs p = p.jobs

let queue_depth p =
  Mutex.lock p.m;
  let d = Queue.length p.queue in
  Mutex.unlock p.m;
  d

let submit p thunk =
  let fut =
    {
      fm = Mutex.create ();
      fc = Condition.create ();
      st = Pending;
      fpool = (if p.jobs <= 1 then None else Some p);
    }
  in
  Obs.add "exec.tasks.submitted" 1;
  (* capture the submitter's span context so the task's spans parent
     correctly on whatever domain runs it; time the queue wait only
     when a task actually crosses the queue *)
  let ctx = Obs.current_context () in
  let submitted_m =
    if p.jobs > 1 && Obs.enabled () then Some (Obs.monotonic_s ()) else None
  in
  let task = { run = run_task fut ctx submitted_m thunk } in
  if p.jobs <= 1 then
    (* sequential identity: run right here, right now — bit-identical
       to the un-pooled code path *)
    task.run ()
  else begin
    Mutex.lock p.m;
    if not p.live then begin
      Mutex.unlock p.m;
      invalid_arg "Pool.submit: pool is shut down"
    end;
    let overflow = Queue.length p.queue >= p.bound in
    let depth =
      if overflow then Queue.length p.queue
      else begin
        Queue.push task p.queue;
        Condition.signal p.not_empty;
        Queue.length p.queue
      end
    in
    Mutex.unlock p.m;
    if Obs.enabled () then Obs.gauge "exec.pool.queue_depth" (float_of_int depth);
    if overflow then begin
      (* caller-runs overflow: bounds the queue without blocking the
         producer, and keeps nested submission deadlock-free *)
      Obs.add "exec.tasks.caller_ran" 1;
      task.run ()
    end
  end;
  fut

(* Pop-and-run one queued task, if any.  Used by [await] to make
   progress instead of blocking — the mechanism that makes nested
   submit/await patterns (a table row awaiting its four counts) safe
   on a fixed-size pool. *)
let try_run_one p =
  Mutex.lock p.m;
  let t = if Queue.is_empty p.queue then None else Some (Queue.pop p.queue) in
  Mutex.unlock p.m;
  match t with
  | None -> false
  | Some t ->
      Obs.add "exec.await.helped" 1;
      t.run ();
      true

let rec await fut =
  Mutex.lock fut.fm;
  match fut.st with
  | Done v ->
      Mutex.unlock fut.fm;
      v
  | Failed (e, bt) ->
      Mutex.unlock fut.fm;
      Printexc.raise_with_backtrace e bt
  | Pending -> (
      Mutex.unlock fut.fm;
      match fut.fpool with
      | Some p when try_run_one p -> await fut
      | _ ->
          Mutex.lock fut.fm;
          (match fut.st with
          | Pending -> Condition.wait fut.fc fut.fm
          | _ -> ());
          Mutex.unlock fut.fm;
          await fut)

let map_list p f xs =
  let futs = List.map (fun x -> submit p (fun () -> f x)) xs in
  List.map await futs

let all_some ?pool thunks =
  match pool with
  | None ->
      let rec go acc = function
        | [] -> Some (List.rev acc)
        | f :: rest -> Option.bind (f ()) (fun v -> go (v :: acc) rest)
      in
      go [] thunks
  | Some p ->
      let rs = map_list p (fun f -> f ()) thunks in
      if List.for_all Option.is_some rs then Some (List.map Option.get rs)
      else None

let shutdown p =
  Mutex.lock p.m;
  if p.live then begin
    p.live <- false;
    Condition.broadcast p.not_empty;
    let ws = p.workers in
    p.workers <- [];
    Mutex.unlock p.m;
    List.iter Domain.join ws
  end
  else Mutex.unlock p.m

let with_pool ?queue_bound ~jobs f =
  let p = create ?queue_bound ~jobs () in
  match f p with
  | v ->
      shutdown p;
      v
  | exception e ->
      shutdown p;
      raise e
