open Mcml_logic
module Memo = Mcml_exec.Memo

type backend = Exact | Approx of Approx.config | Brute

type outcome = { count : Bignat.t; exact : bool; time : float }

type cache = outcome option Memo.t

let name = function
  | Exact -> "exact(ddnnf)"
  | Approx _ -> "approx(approxmc)"
  | Brute -> "brute"

(* Disk codec for [outcome option].  Timeouts are persisted too — the
   budget is part of the key, so a recorded timeout is as durable a
   fact as a count.  "t" = timeout; "c <decimal> <e|a> <%h time>"
   otherwise.  Anything unparseable is treated as absent, never as a
   wrong answer. *)
let outcome_to_string = function
  | None -> "t"
  | Some { count; exact; time } ->
      Printf.sprintf "c %s %s %h" (Bignat.to_string count)
        (if exact then "e" else "a")
        time

let outcome_of_string s =
  if s = "t" then Some None
  else
    match String.split_on_char ' ' s with
    | [ "c"; digits; flag; time ] -> (
        match (Bignat.of_string digits, flag, float_of_string_opt time) with
        | Some count, ("e" | "a"), Some time ->
            Some (Some { count; exact = flag = "e"; time })
        | _ -> None)
    | _ -> None

let cache_create ?capacity ?disk () =
  let backing =
    Option.map
      (fun d ->
        {
          Memo.load =
            (fun key ->
              Option.bind (Mcml_exec.Diskcache.find d ~key) outcome_of_string);
          store =
            (fun key v -> Mcml_exec.Diskcache.add d ~key (outcome_to_string v));
        })
      disk
  in
  Memo.create ?capacity ?backing ~name:"exec.count_cache" ()

let cache_stats = Memo.stats

(* The key serializes everything the outcome depends on: the backend
   and all its parameters (for Approx: epsilon, delta, seed,
   max_rounds, max_conflicts — two configs differing only in seed may
   legitimately return different estimates), the budget, and the full
   CNF content (nvars, projection set — distinguishing [None] from an
   explicit set — and every literal of every clause, in order).  Floats
   are printed with %h so distinct budgets never collide. *)
let cache_key ~budget ~backend (cnf : Cnf.t) =
  let buf = Buffer.create (64 + (8 * Cnf.num_literals cnf)) in
  (match backend with
  | Exact -> Buffer.add_string buf "exact"
  | Brute -> Buffer.add_string buf "brute"
  | Approx { Approx.epsilon; delta; seed; max_rounds; max_conflicts } ->
      Buffer.add_string buf
        (Printf.sprintf "approx(%h,%h,%d,%s,%d)" epsilon delta seed
           (match max_rounds with None -> "-" | Some r -> string_of_int r)
           max_conflicts));
  Buffer.add_string buf (Printf.sprintf "|b=%h|n=%d|p=" budget cnf.Cnf.nvars);
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

let count_uncached ~budget ~backend (cnf : Cnf.t) : outcome option =
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

let count ?(budget = 5000.0) ?cache ~backend (cnf : Cnf.t) : outcome option =
  let timed = Mcml_obs.Obs.enabled () in
  let t0 = if timed then Mcml_obs.Obs.monotonic_s () else 0.0 in
  let outcome =
    match cache with
    | None -> count_uncached ~budget ~backend cnf
    | Some c -> (
        let key = cache_key ~budget ~backend cnf in
        match Memo.find c ~key with
        | Some o -> o
        | None ->
            let o = count_uncached ~budget ~backend cnf in
            Memo.add c ~key o;
            o)
  in
  (* the end-to-end latency of a count query as the caller sees it
     (cache lookup included), split per backend *)
  if timed then
    Mcml_obs.Obs.observe
      ("counter.count." ^ backend_tag backend ^ "_ms")
      ((Mcml_obs.Obs.monotonic_s () -. t0) *. 1000.0);
  outcome
