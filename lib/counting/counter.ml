open Mcml_logic
module Memo = Mcml_exec.Memo

type backend = Exact | Approx of Approx.config | Brute

type outcome = { count : Bignat.t; exact : bool; time : float }

(* A completed count, or the largest budget a count of the key timed
   out under.  Only completed counts reach the disk. *)
type entry = Done of outcome | Timed_out of float

type cache = entry Memo.t

let name = function
  | Exact -> "exact(ddnnf)"
  | Approx _ -> "approx(approxmc)"
  | Brute -> "brute"

(* Disk codec for completed counts: "c <decimal> <e|a> <%h time>".  A
   timeout depends on the load and the clock as much as on the query, so
   it is never written: a restarted process counts it again.  Anything
   else on disk, including the "t" timeout records of older builds,
   reads as absent — never as a wrong answer. *)
let outcome_to_string { count; exact; time } =
  Printf.sprintf "c %s %s %h" (Bignat.to_string count) (if exact then "e" else "a") time

let outcome_of_string s =
  match String.split_on_char ' ' s with
  | [ "c"; digits; flag; time ] -> (
      match (Bignat.of_string digits, flag, float_of_string_opt time) with
      | Some count, ("e" | "a"), Some time -> Some { count; exact = flag = "e"; time }
      | _ -> None)
  | _ -> None

let cache_create ?capacity ?disk () =
  let backing =
    Option.map
      (fun d ->
        {
          Memo.load =
            (fun key ->
              Option.map
                (fun o -> Done o)
                (Option.bind (Mcml_exec.Diskcache.find d ~key) outcome_of_string));
          store =
            (fun key -> function
              | Done o -> Mcml_exec.Diskcache.add d ~key (outcome_to_string o)
              | Timed_out _ -> ());
        })
      disk
  in
  Memo.create ?capacity ?backing ~name:"exec.count_cache" ()

let cache_stats = Memo.stats

type query = {
  backend : backend;
  cnf : Cnf.t;
  key : Memo.key option Atomic.t;  (** built by the first cached lookup *)
}

let query ~backend cnf = { backend; cnf; key = Atomic.make None }

(* The key serializes everything a completed outcome depends on: the
   backend and all its parameters (for Approx: epsilon, delta, seed,
   max_rounds, max_conflicts — two configs differing only in seed may
   legitimately return different estimates) and the full CNF content
   (nvars, projection set — distinguishing [None] from an explicit set —
   and every literal of every clause, in order).  Floats are printed
   with %h so distinct parameters never collide.  The budget is not in
   it: a budget decides only whether a count finishes, never what it
   finishes with. *)
let backend_key = function
  | Exact -> "exact"
  | Brute -> "brute"
  | Approx { Approx.epsilon; delta; seed; max_rounds; max_conflicts } ->
      Printf.sprintf "approx(%h,%h,%d,%s,%d)" epsilon delta seed
        (match max_rounds with None -> "-" | Some r -> string_of_int r)
        max_conflicts

let key_text { backend; cnf; _ } =
  let buf = Buffer.create (64 + (8 * Cnf.num_literals cnf)) in
  Buffer.add_string buf (backend_key backend);
  Buffer.add_string buf (Printf.sprintf "|n=%d|p=" cnf.Cnf.nvars);
  (match cnf.Cnf.projection with
  | None -> Buffer.add_char buf '*'
  | Some vs ->
      Array.iter
        (fun v ->
          Buffer.add_string buf (string_of_int v);
          Buffer.add_char buf ',')
        vs);
  Buffer.add_char buf '|';
  Array.iter
    (fun clause ->
      Array.iter
        (fun l ->
          Buffer.add_string buf (string_of_int (l : Lit.t :> int));
          Buffer.add_char buf ' ')
        clause;
      Buffer.add_char buf ';')
    cnf.Cnf.clauses;
  Buffer.contents buf

(* At most once per query, unless two domains race to build it: both
   build the same text and the first one kept wins, so every later
   lookup of the query hands the memo one record. *)
let memo_key q =
  match Atomic.get q.key with
  | Some k -> k
  | None ->
      let k = Memo.key (key_text q) in
      if Atomic.compare_and_set q.key None (Some k) then k
      else Option.get (Atomic.get q.key)

let cache_key q = Memo.text (memo_key q)

let count_uncached ~budget { backend; cnf; _ } : outcome option =
  let start = Mcml_obs.Obs.monotonic_s () in
  let finish count exact =
    Some { count; exact; time = Mcml_obs.Obs.monotonic_s () -. start }
  in
  let outcome =
    match backend with
    | Exact -> (
        match Exact.count_opt ~budget cnf with
        | Some c -> finish c true
        | None -> None)
    | Approx config -> (
        match Approx.count_opt ~budget ~config cnf with
        | Some c -> finish c false
        | None -> None)
    | Brute -> finish (Brute.count cnf) true
  in
  if outcome = None then Mcml_obs.Obs.add "count.timeouts" 1;
  outcome

let backend_tag = function
  | Exact -> "exact"
  | Approx _ -> "approx"
  | Brute -> "brute"

let count ?(budget = 5000.0) ?cache q : outcome option =
  let timed = Mcml_obs.Obs.enabled () in
  let t0 = if timed then Mcml_obs.Obs.monotonic_s () else 0.0 in
  let outcome =
    match cache with
    | None -> count_uncached ~budget q
    | Some c -> (
        let key = memo_key q in
        (* a timeout answers only a call with no more time than it had *)
        let usable = function Done _ -> true | Timed_out b -> budget <= b in
        match Memo.find ~usable c ~key with
        | Some (Done o) -> Some o
        | Some (Timed_out _) -> None
        | None ->
            let o = count_uncached ~budget q in
            let entry = match o with Some o -> Done o | None -> Timed_out budget in
            (* a completed count replaces a timeout, a timeout a shorter one *)
            Memo.add c ~key entry ~replace:(function
              | Done _ -> false
              | Timed_out b -> Option.is_some o || b < budget);
            o)
  in
  (* the end-to-end latency of a count query as the caller sees it
     (cache lookup included), split per backend *)
  if timed then
    Mcml_obs.Obs.observe
      ("counter.count." ^ backend_tag q.backend ^ "_ms")
      ((Mcml_obs.Obs.monotonic_s () -. t0) *. 1000.0);
  outcome
