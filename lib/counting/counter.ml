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

type plan = One of query | Difference of { whole : query; part : query }

(* the order a plan's queries are looked up and counted in *)
let queries = function One q -> [ q ] | Difference { whole; part } -> [ part; whole ]

let combine plan outcomes =
  match (plan, outcomes) with
  | One _, [ o ] -> o
  | Difference _, [ p; w ] ->
      { count = Bignat.sub w.count p.count; exact = p.exact && w.exact; time = p.time +. w.time }
  | _ -> invalid_arg "Counter.combine"

type pending = {
  plan : plan;
  found : outcome option list;  (** per query, in order: [None] = still to count *)
  cache : cache option;
}

(* the latency an answer took, as its caller sees it, split per backend *)
let observe plan t0 =
  Mcml_obs.Obs.observe
    ("counter.count." ^ backend_tag (List.hd (queries plan)).backend ^ "_ms")
    ((Mcml_obs.Obs.monotonic_s () -. t0) *. 1000.0)

let lookup ?(budget = 5000.0) c plan =
  let timed = Mcml_obs.Obs.enabled () in
  let t0 = if timed then Mcml_obs.Obs.monotonic_s () else 0.0 in
  (* a timeout answers only a call with no more time than it had *)
  let usable = function Done _ -> true | Timed_out b -> budget <= b in
  let rec go found = function
    | [] when List.for_all Option.is_some found ->
        `Answer (Some (combine plan (List.rev_map Option.get found)))
    | [] -> `Count { plan; found = List.rev found; cache = Some c }
    | q :: rest -> (
        match Memo.find ~usable c ~key:(memo_key q) with
        | Some (Done o) -> go (Some o :: found) rest
        | Some (Timed_out _) -> `Answer None
        | None -> go (None :: found) rest)
  in
  let r = go [] (queries plan) in
  (match r with `Answer _ when timed -> observe plan t0 | _ -> ());
  r

let finish ?(budget = 5000.0) { plan; found; cache } =
  let timed = Mcml_obs.Obs.enabled () in
  let start = Mcml_obs.Obs.monotonic_s () in
  (* each count gets the budget the counts before it left *)
  let left = ref budget in
  let count q =
    match Option.bind cache (fun c -> Memo.peek c ~key:(memo_key q)) with
    | Some (Done o) ->
        (* stored by a concurrent request since the lookup: the miss
           stands, but nothing counts it again *)
        Some o
    | _ ->
        let budget = !left in
        let t0 = Mcml_obs.Obs.monotonic_s () in
        let o = count_uncached ~budget q in
        left := budget -. (Mcml_obs.Obs.monotonic_s () -. t0);
        Option.iter
          (fun c ->
            let entry = match o with Some o -> Done o | None -> Timed_out budget in
            (* a completed count replaces a timeout, a timeout a shorter one *)
            Memo.add c ~key:(memo_key q) entry ~replace:(function
              | Done _ -> false
              | Timed_out b -> Option.is_some o || b < budget))
          cache;
        o
  in
  let rec go outcomes = function
    | [] -> Some (combine plan (List.rev outcomes))
    | (_, Some o) :: rest -> go (o :: outcomes) rest
    | (q, None) :: rest -> Option.bind (count q) (fun o -> go (o :: outcomes) rest)
  in
  let r = go [] (List.combine (queries plan) found) in
  if timed then observe plan start;
  r

let run ?budget ?cache plan =
  match cache with
  | None -> finish ?budget { plan; found = List.map (fun _ -> None) (queries plan); cache }
  | Some c -> (
      match lookup ?budget c plan with `Answer a -> a | `Count p -> finish ?budget p)

let count ?budget ?cache q = run ?budget ?cache (One q)
