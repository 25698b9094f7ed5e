open Mcml_logic
open Mcml_sat

exception Timeout

(* Exact projected counting as knowledge compilation: the search IS the
   bottom-up construction of a decision-DNNF trace.  One global
   assignment array and trail (assignments are undone on backtrack, the
   clause database is never copied), queue-based counter unit
   propagation, connected-component decomposition over the active
   clauses with smallest components counted first, a component cache
   keyed on packed integer signatures, and VSADS-style branching
   (conflict activity + component occurrence count).

   Invariant of [count_component]: given an array of active
   (unsatisfied) clause indices closed under unassigned-variable
   sharing, with unit propagation already at fixpoint, it returns the
   number of assignments of exactly the projection variables OCCURRING
   UNASSIGNED in those clauses that extend to a model of them — plus
   the trace node that derives it. *)

(* The trace representation, shared with the public [Dnnf] module
   below ([compile] needs the engine, so the engine comes between).

   A trace is one flat int array, [code], rather than a node per heap
   block: compiled forms are kept for the life of a process, and few
   blocks per form keep the major heap compact.  The first [size + 3]
   words are offsets, so entry [i] occupies [code.(code.(i))] up to
   [code.(i + 1) - 1], and [code.(0) = size + 3].  Entries [0 .. size -
   1] are the nodes, entry [size] the literals the root forced and
   entry [size + 1] the projection.  A node's first word is its tag:
   - [False]: [0];
   - [True]: [1];
   - [Decision]: [2; var; hi; lo; |hi_fixed|; hi_fixed...; lo_fixed...];
   - [Decomp]: [3; kids...];
   - [Free]: [4; child; vars...].
   [node] decodes one node into the public view. *)
module D = struct
  type node =
    | True
    | False
    | Decision of {
        var : int;
        hi : int;
        lo : int;
        hi_fixed : Lit.t array;
        lo_fixed : Lit.t array;
      }
    | Decomp of int array
    | Free of { vars : int array; child : int }

  let tag_false = 0
  let tag_true = 1
  let tag_decision = 2
  let tag_decomp = 3
  let tag_free = 4

  type t = { code : int array; root : int; total : Bignat.t }

  (* Conditioning scratch, one per domain, at least as long as the
     largest form the domain has conditioned: [value.(i)] is node [i]'s
     conditioned count when [mark.(i) = gen].  A form therefore keeps
     no scratch of its own.  The slot is emptied while a call holds the
     scratch, so a second call on the same domain (another thread) makes
     its own. *)
  type scratch = { mark : int array; value : Bignat.t array; mutable gen : int }

  let scratch : scratch option Atomic.t Domain.DLS.key =
    Domain.DLS.new_key (fun () -> Atomic.make None)

  let root t = t.root
  let size t = t.code.(0) - 3
  let total t = t.total

  let lits c s e = Array.init (e - s) (fun k -> Lit.of_index c.(s + k))

  let projection t =
    let c = t.code and n = size t in
    Array.sub c c.(n + 1) (c.(n + 2) - c.(n + 1))

  let node t i =
    let c = t.code in
    let s = c.(i) and e = c.(i + 1) in
    match c.(s) with
    | 0 -> False
    | 1 -> True
    | 2 ->
        let m = s + 5 + c.(s + 4) in
        Decision
          {
            var = c.(s + 1);
            hi = c.(s + 2);
            lo = c.(s + 3);
            hi_fixed = lits c (s + 5) m;
            lo_fixed = lits c m e;
          }
    | 3 -> Decomp (Array.sub c (s + 1) (e - s - 1))
    | _ -> Free { vars = Array.sub c (s + 2) (e - s - 2); child = c.(s + 1) }

  (* Every literal of [c.(s) .. c.(e - 1)] agrees with [want]. *)
  let rec agrees want c s e =
    s >= e
    ||
    let l = Lit.of_index c.(s) in
    let w = want.(Lit.var l) in
    (w = -1 || w = Bool.to_int (Lit.sign l)) && agrees want c (s + 1) e

  let add a b = if Bignat.is_zero a then b else if Bignat.is_zero b then a else Bignat.add a b

  (* The sum over [terms] of the models that agree with each term.  A
     node covers the same variables wherever the DAG reaches it, so
     within one term its conditioned count depends on the node alone
     and the memo serves the pass; [gen] moves on between terms.
     Literals a branch (or the root) fixed must agree with the term,
     and a [Free] variable the term sets counts once.  The scratch's
     counts are cleared before it goes back, so none outlives the
     call. *)
  let condition t terms =
    let c = t.code and n = size t in
    (* var -> -1 open, 0 or 1 as the term sets it, 2 set both ways,
       [outside] the projection *)
    let outside = 3 in
    let projection = projection t in
    let want = Array.make (Array.fold_left max 0 projection + 1) outside in
    Array.iter (fun v -> want.(v) <- -1) projection;
    let slot = Domain.DLS.get scratch in
    let box =
      match Atomic.exchange slot None with
      | Some sc as box when Array.length sc.mark >= n -> box
      | _ -> Some { mark = Array.make n 0; value = Array.make n Bignat.zero; gen = 0 }
    in
    let sc = Option.get box in
    let rec go i =
      if sc.mark.(i) = sc.gen then sc.value.(i)
      else begin
        let s = c.(i) and e = c.(i + 1) in
        let v =
          match c.(s) with
          | 0 -> Bignat.zero
          | 1 -> Bignat.one
          | 2 ->
              let m = s + 5 + c.(s + 4) in
              add
                (if agrees want c (s + 5) m then go c.(s + 2) else Bignat.zero)
                (if agrees want c m e then go c.(s + 3) else Bignat.zero)
          | 3 ->
              let rec product acc k =
                if k = e || Bignat.is_zero acc then acc
                else product (Bignat.mul acc (go c.(k))) (k + 1)
              in
              product (go c.(s + 1)) (s + 2)
          | _ ->
              let open_vars = ref 0 in
              for k = s + 2 to e - 1 do
                if want.(c.(k)) = -1 then incr open_vars
              done;
              Bignat.shift_left (go c.(s + 1)) !open_vars
        in
        sc.mark.(i) <- sc.gen;
        sc.value.(i) <- v;
        v
      end
    in
    let one term =
      let consistent = ref true in
      Array.iter
        (fun l ->
          let v = Lit.var l and b = Bool.to_int (Lit.sign l) in
          if v >= Array.length want || want.(v) = outside then
            invalid_arg "Dnnf.condition: term variable outside the projection";
          if want.(v) = -1 then want.(v) <- b
          else if want.(v) <> b then begin
            want.(v) <- 2;
            consistent := false
          end)
        term;
      sc.gen <- sc.gen + 1;
      let r =
        if !consistent && agrees want c c.(n) c.(n + 1) then go t.root else Bignat.zero
      in
      Array.iter (fun l -> want.(Lit.var l) <- -1) term;
      r
    in
    Fun.protect
      ~finally:(fun () ->
        Array.fill sc.value 0 n Bignat.zero;
        Atomic.set slot box)
      (fun () -> List.fold_left (fun acc term -> add acc (one term)) Bignat.zero terms)

  (* A fresh assignment of the projection, in [projection t] order, the
     position of each variable in it, and [set s e], which writes the
     literals [code.(s) .. code.(e - 1)] into it. *)
  let assignment t =
    let c = t.code and projection = projection t in
    let pos = Array.make (Array.fold_left max 0 projection + 1) (-1) in
    Array.iteri (fun i v -> pos.(v) <- i) projection;
    let cur = Array.make (Array.length projection) false in
    let set s e =
      for k = s to e - 1 do
        let l = Lit.of_index c.(k) in
        cur.(pos.(Lit.var l)) <- Lit.sign l
      done
    in
    (cur, pos, set)

  (* Depth-first enumeration in continuation-passing style over one
     shared assignment: every node sets exactly the projection
     variables below it (both branches of a decision cover the same
     component), so overwriting in place is sound.  Nodes with no
     model are pruned up front, so every walk into a node yields at
     least one model and the cost is proportional to the output. *)
  let iter_models ?(limit = max_int) t f =
    let c = t.code and cur, pos, set = assignment t in
    (* 0 unknown, 1 has a model, 2 has none *)
    let live = Array.make (size t) 0 in
    let rec has_model i =
      if live.(i) <> 0 then live.(i) = 1
      else begin
        let s = c.(i) and e = c.(i + 1) in
        let b =
          match c.(s) with
          | 0 -> false
          | 1 -> true
          | 2 -> has_model c.(s + 2) || has_model c.(s + 3)
          | 3 ->
              let rec all k = k = e || (has_model c.(k) && all (k + 1)) in
              all (s + 1)
          | _ -> has_model c.(s + 1)
        in
        live.(i) <- (if b then 1 else 2);
        b
      end
    in
    let emitted = ref 0 in
    let exception Stop in
    let emit () =
      f (Array.copy cur);
      incr emitted;
      if !emitted >= limit then raise Stop
    in
    let rec walk i k =
      if has_model i then begin
        let s = c.(i) and e = c.(i + 1) in
        match c.(s) with
        | 0 -> ()
        | 1 -> k ()
        | 2 ->
            let m = s + 5 + c.(s + 4) in
            set (s + 5) m;
            walk c.(s + 2) k;
            set m e;
            walk c.(s + 3) k
        | 3 ->
            let rec product j = if j = e then k () else walk c.(j) (fun () -> product (j + 1)) in
            product (s + 1)
        | _ -> walk c.(s + 1) (fun () -> spread (s + 2) e k)
      end
    and spread j e k =
      if j = e then k ()
      else begin
        let p = pos.(c.(j)) in
        cur.(p) <- true;
        spread (j + 1) e k;
        cur.(p) <- false;
        spread (j + 1) e k
      end
    in
    if limit > 0 then begin
      set c.(size t) c.(size t + 1);
      try walk t.root emit with Stop -> ()
    end

  (* Uniform sampling without replacement.  One draw walks down from the
     root taking [hi] with probability count(hi)/count(node), every
     [Decomp] child and every [Free] variable independently, so each
     projected model is equally likely; repeats are rejected.  Counts
     are kept as log2 floats, so no scope overflows. *)
  let sample_models ~rng ~limit t f =
    let c = t.code and cur, pos, set = assignment t in
    let n = Array.length cur in
    let log2_add a b =
      let m = Float.max a b in
      if m = Float.neg_infinity then m
      else m +. Float.log2 (1.0 +. Float.pow 2.0 (Float.min a b -. m))
    in
    (* NaN: not yet computed (a log count is never NaN) *)
    let memo = Array.make (size t) Float.nan in
    let rec lc i =
      if not (Float.is_nan memo.(i)) then memo.(i)
      else begin
        let s = c.(i) and e = c.(i + 1) in
        let v =
          match c.(s) with
          | 0 -> Float.neg_infinity
          | 1 -> 0.0
          | 2 -> log2_add (lc c.(s + 2)) (lc c.(s + 3))
          | 3 ->
              let acc = ref 0.0 in
              for k = s + 1 to e - 1 do
                acc := !acc +. lc c.(k)
              done;
              !acc
          | _ -> lc c.(s + 1) +. float_of_int (e - s - 2)
        in
        memo.(i) <- v;
        v
      end
    in
    let rec draw i =
      let s = c.(i) and e = c.(i + 1) in
      match c.(s) with
      | 0 | 1 -> ()
      | 2 ->
          let m = s + 5 + c.(s + 4) and hi = c.(s + 2) and lo = c.(s + 3) in
          (* P(hi) = 1 / (1 + count(lo)/count(hi)) *)
          if Splitmix.float rng *. (1.0 +. Float.pow 2.0 (lc lo -. lc hi)) < 1.0 then begin
            set (s + 5) m;
            draw hi
          end
          else begin
            set m e;
            draw lo
          end
      | 3 ->
          for k = s + 1 to e - 1 do
            draw c.(k)
          done
      | _ ->
          draw c.(s + 1);
          for k = s + 2 to e - 1 do
            cur.(pos.(c.(k))) <- Splitmix.bool rng
          done
    in
    let limit = match Bignat.to_int_opt t.total with Some n -> min n limit | None -> limit in
    let seen : (string, unit) Hashtbl.t = Hashtbl.create (min limit 4096) in
    let found = ref 0 in
    set c.(size t) c.(size t + 1);
    while !found < limit do
      draw t.root;
      let key = String.init n (fun i -> if cur.(i) then '1' else '0') in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        f (Array.copy cur);
        incr found
      end
    done
end

(* Component signatures: an int array, one word [(ci << 31) | mask of
   falsified literal positions] per clause of up to 31 literals.
   Longer clauses get a record [-(ci+2); pos; pos; ...; -1] — headers
   are <= -2 and the terminator is -1, so the encoding stays a prefix
   code against the non-negative short words.  Within one counting run
   the clause database is fixed, so the signature determines the
   residual subformula exactly (satisfied clauses are excluded before
   keying). *)
module Sig_key = struct
  type t = int array

  let equal (a : t) (b : t) =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go i = i >= n || (Array.unsafe_get a i = Array.unsafe_get b i && go (i + 1)) in
    go 0

  let hash (a : t) =
    let h = ref (Array.length a) in
    Array.iter
      (fun x ->
        let z = (!h lxor x) * 0x9E3779B97F4A7C1 in
        h := z lxor (z lsr 29))
      a;
    !h
end

module Cache = Hashtbl.Make (Sig_key)

(* A trace under construction: each node's start in [words], and the
   node words of [D]'s layout. *)
type trace_buf = { off : int Vec.t; words : int Vec.t }

type state = {
  clauses : Lit.t array array;
  len : int array; (* clause -> literal count *)
  pos_occ : int array array; (* var -> clauses with the positive literal *)
  neg_occ : int array array; (* var -> clauses with the negative literal *)
  is_proj : bool array;
  proj : int array; (* the projection variables, ascending *)
  assign : int array; (* var -> -1 / 0 / 1 *)
  trail : int Vec.t; (* assigned vars, in order *)
  n_false : int array; (* clause -> # falsified literals *)
  sat_by : int array; (* clause -> # satisfied literals *)
  activity : float array; (* VSADS: bumped on conflict clauses *)
  mutable act_inc : float;
  cache : (Bignat.t * int) Cache.t; (* signature -> (count, node id) *)
  use_cache : bool;
  trace : trace_buf option; (* Some: retain the trace *)
  mutable node_count : int; (* counted in both modes *)
  mutable hits : int;
  mutable misses : int;
  mutable max_depth : int;
  mutable ticks : int;
  deadline : float option;
  (* allocation-free scratch, invalidated by bumping [stamp] *)
  var_stamp : int array;
  var_slot : int array;
  pv_stamp : int array;
  pv_occ : int array;
  mutable stamp : int;
  queue : Lit.t Queue.t; (* propagation queue, reused across calls *)
}

let check_time st =
  st.ticks <- st.ticks + 1;
  (* stride of 1024, anchored at the first tick: an already-expired
     deadline (a served request admitted past it) must time out even
     when the whole count would finish in under one stride *)
  if st.ticks land 1023 = 1 then
    match st.deadline with
    | Some d when Mcml_obs.Obs.monotonic_s () > d -> raise Timeout
    | _ -> ()

let value_lit st (l : Lit.t) =
  let a = st.assign.(Lit.var l) in
  if a = -1 then -1 else if Lit.sign l then a else 1 - a

exception Conflict

(* Assign l := true, updating clause counters.  Record on trail. *)
let assign_lit st (l : Lit.t) =
  let v = Lit.var l in
  st.assign.(v) <- (if Lit.sign l then 1 else 0);
  Vec.push st.trail v;
  let same = if Lit.sign l then st.pos_occ.(v) else st.neg_occ.(v) in
  let opp = if Lit.sign l then st.neg_occ.(v) else st.pos_occ.(v) in
  Array.iter (fun ci -> st.sat_by.(ci) <- st.sat_by.(ci) + 1) same;
  Array.iter (fun ci -> st.n_false.(ci) <- st.n_false.(ci) + 1) opp

let undo_to st mark =
  while Vec.size st.trail > mark do
    let v = Vec.pop st.trail in
    let was_true = st.assign.(v) = 1 in
    st.assign.(v) <- -1;
    let same = if was_true then st.pos_occ.(v) else st.neg_occ.(v) in
    let opp = if was_true then st.neg_occ.(v) else st.pos_occ.(v) in
    Array.iter (fun ci -> st.sat_by.(ci) <- st.sat_by.(ci) - 1) same;
    Array.iter (fun ci -> st.n_false.(ci) <- st.n_false.(ci) - 1) opp
  done

let bump_clause st ci =
  let inc = st.act_inc in
  Array.iter
    (fun l ->
      let v = Lit.var l in
      st.activity.(v) <- st.activity.(v) +. inc)
    st.clauses.(ci);
  (* grow the increment instead of decaying every score: same ordering,
     one float op per conflict *)
  st.act_inc <- st.act_inc *. 1.05;
  if st.act_inc > 1e100 then begin
    let n = Array.length st.activity in
    for v = 0 to n - 1 do
      st.activity.(v) <- st.activity.(v) *. 1e-100
    done;
    st.act_inc <- st.act_inc *. 1e-100
  end

(* Propagate [seeds] to fixpoint.  Raises [Conflict]; the caller must
   [undo_to] its mark (the queue is reset on the next call).  At
   fixpoint every active clause has >= 2 unassigned literals. *)
let propagate st (seeds : Lit.t list) =
  Queue.clear st.queue;
  List.iter (fun l -> Queue.push l st.queue) seeds;
  while not (Queue.is_empty st.queue) do
    check_time st;
    let l = Queue.pop st.queue in
    match value_lit st l with
    | 1 -> ()
    | 0 -> raise Conflict (* two clauses implied opposite units *)
    | _ ->
        assign_lit st l;
        let v = Lit.var l in
        let opp = if Lit.sign l then st.neg_occ.(v) else st.pos_occ.(v) in
        Array.iter
          (fun ci ->
            if st.sat_by.(ci) = 0 then begin
              let nf = st.n_false.(ci) and ln = st.len.(ci) in
              if nf = ln then begin
                bump_clause st ci;
                raise Conflict
              end
              else if nf = ln - 1 then begin
                let c = st.clauses.(ci) in
                let rec find k = if value_lit st c.(k) = -1 then c.(k) else find (k + 1) in
                Queue.push (find 0) st.queue
              end
            end)
          opp
  done

(* The still-active (unsatisfied) clauses of [comp], ascending. *)
let active_of st (comp : int array) : int array =
  let k = ref 0 in
  Array.iter (fun ci -> if st.sat_by.(ci) = 0 then incr k) comp;
  if !k = Array.length comp then comp
  else begin
    let out = Array.make !k 0 in
    let j = ref 0 in
    Array.iter
      (fun ci ->
        if st.sat_by.(ci) = 0 then begin
          out.(!j) <- ci;
          incr j
        end)
      comp;
    out
  end

(* Connected components (by shared unassigned variables) of [active]
   (all unsatisfied), smallest-first so cheap cache hits and cheap
   refutations land before expensive subtrees.  Clause ids stay
   ascending within each component, keeping signatures canonical. *)
let split_components st (active : int array) : int array list =
  let n = Array.length active in
  if n <= 1 then if n = 0 then [] else [ active ]
  else begin
    let parent = Array.init n (fun i -> i) in
    let rec find i =
      if parent.(i) = i then i
      else begin
        parent.(i) <- find parent.(i);
        parent.(i)
      end
    in
    let union i j =
      let ri = find i and rj = find j in
      if ri <> rj then parent.(ri) <- rj
    in
    st.stamp <- st.stamp + 1;
    let stamp = st.stamp in
    Array.iteri
      (fun i ci ->
        Array.iter
          (fun l ->
            let v = Lit.var l in
            if st.assign.(v) = -1 then
              if st.var_stamp.(v) = stamp then union i st.var_slot.(v)
              else begin
                st.var_stamp.(v) <- stamp;
                st.var_slot.(v) <- i
              end)
          st.clauses.(ci))
      active;
    let count_of = Array.make n 0 in
    for i = 0 to n - 1 do
      let r = find i in
      count_of.(r) <- count_of.(r) + 1
    done;
    let arrays = Array.make n [||] in
    for i = 0 to n - 1 do
      if count_of.(i) > 0 then arrays.(i) <- Array.make count_of.(i) 0
    done;
    let fill = Array.make n 0 in
    for i = 0 to n - 1 do
      let r = find i in
      arrays.(r).(fill.(r)) <- active.(i);
      fill.(r) <- fill.(r) + 1
    done;
    let comps = ref [] in
    for i = n - 1 downto 0 do
      if count_of.(i) > 0 then comps := arrays.(i) :: !comps
    done;
    List.sort
      (fun a b ->
        let c = compare (Array.length a) (Array.length b) in
        if c <> 0 then c else compare a.(0) b.(0))
      !comps
  end

let signature st (comp : int array) : int array =
  let words = ref 0 in
  Array.iter
    (fun ci -> if st.len.(ci) <= 31 then incr words else words := !words + 2 + st.n_false.(ci))
    comp;
  let out = Array.make !words 0 in
  let j = ref 0 in
  Array.iter
    (fun ci ->
      let c = st.clauses.(ci) in
      if st.len.(ci) <= 31 then begin
        let mask = ref 0 in
        Array.iteri (fun k l -> if value_lit st l = 0 then mask := !mask lor (1 lsl k)) c;
        out.(!j) <- (ci lsl 31) lor !mask;
        incr j
      end
      else begin
        out.(!j) <- -(ci + 2);
        incr j;
        Array.iteri
          (fun k l ->
            if value_lit st l = 0 then begin
              out.(!j) <- k;
              incr j
            end)
          c;
        out.(!j) <- -1;
        incr j
      end)
    comp;
  out

(* Trace node construction.  [emit] counts nodes in both modes, so
   [count] and [Dnnf.compile] report identical [dnnf_nodes]; only the
   tracing mode writes the node's words (the layout of [D]).  Node 0 is
   the shared False leaf, node 1 the shared True leaf. *)
let node_false = 0
let node_true = 1

let open_node b tag =
  Vec.push b.off (Vec.size b.words);
  Vec.push b.words tag;
  Vec.size b.off - 1

let emit st tag write =
  st.node_count <- st.node_count + 1;
  match st.trace with
  | None -> -1
  | Some b ->
      let id = open_node b tag in
      write b.words;
      id

let mk_decision st var hi lo hi_fixed lo_fixed =
  emit st D.tag_decision (fun w ->
      List.iter (Vec.push w) [ var; hi; lo; Array.length hi_fixed ];
      Array.iter (Vec.push w) hi_fixed;
      Array.iter (Vec.push w) lo_fixed)

(* [k] is the number of vanished variables; only the tracing mode
   names them in [vars] (the counting mode passes [[||]]). *)
let mk_free st k vars child =
  if k = 0 then child
  else
    emit st D.tag_free (fun w ->
        Vec.push w child;
        Array.iter (Vec.push w) vars)

let mk_decomp st = function
  | [] -> node_true
  | [ c ] -> c
  | cs -> emit st D.tag_decomp (fun w -> List.iter (Vec.push w) cs)

(* What makes the trace enumerable, gathered in the tracing mode only so
   that [count] allocates nothing more.  A cached node stays valid
   wherever its signature recurs: both depend only on the residual
   clauses.  [fixed_since st mark] is the projection literals assigned
   since [mark] (a branch's decision first, then what propagation
   forced), as [Lit.to_index] words; [vanished st pvars stamp k] is the [k] unassigned variables
   of [pvars] no occurrence carries [stamp] for. *)
let fixed_since st mark =
  if st.trace = None then [||]
  else begin
    let acc = ref [] in
    for i = Vec.size st.trail - 1 downto mark do
      let v = Vec.get st.trail i in
      if st.is_proj.(v) then acc := Lit.to_index (Lit.make v (st.assign.(v) = 1)) :: !acc
    done;
    Array.of_list !acc
  end

let vanished st pvars stamp k =
  if k = 0 || st.trace = None then [||]
  else
    Array.of_seq
      (Seq.filter (fun u -> st.assign.(u) = -1 && st.pv_stamp.(u) <> stamp) (Array.to_seq pvars))

(* Distinct unassigned projection variables occurring in [comp] (all
   active), and the VSADS branch choice: maximal activity + occurrence
   score, ties to the smallest variable. *)
let analyze_comp st (comp : int array) : int array * int =
  st.stamp <- st.stamp + 1;
  let stamp = st.stamp in
  let acc = ref [] in
  let n = ref 0 in
  Array.iter
    (fun ci ->
      Array.iter
        (fun l ->
          let v = Lit.var l in
          if st.is_proj.(v) && st.assign.(v) = -1 then
            if st.pv_stamp.(v) = stamp then st.pv_occ.(v) <- st.pv_occ.(v) + 1
            else begin
              st.pv_stamp.(v) <- stamp;
              st.pv_occ.(v) <- 1;
              acc := v :: !acc;
              incr n
            end)
        st.clauses.(ci))
    comp;
  let pvars = Array.make !n 0 in
  let i = ref 0 in
  List.iter
    (fun v ->
      pvars.(!i) <- v;
      incr i)
    !acc;
  let best = ref 0 and best_score = ref neg_infinity in
  Array.iter
    (fun v ->
      let s = st.activity.(v) +. float_of_int st.pv_occ.(v) in
      if s > !best_score || (s = !best_score && v < !best) then begin
        best := v;
        best_score := s
      end)
    pvars;
  (pvars, !best)

(* SAT check on a projection-free component: plain DPLL on the shared
   state (the component's entry is cached by [count_component], so a
   True/False leaf is never recomputed). *)
let rec residual_sat st (comp : int array) : bool =
  check_time st;
  if Array.length comp = 0 then true
  else begin
    let c = st.clauses.(comp.(0)) in
    let l =
      let rec find k = if value_lit st c.(k) = -1 then c.(k) else find (k + 1) in
      find 0
    in
    let try_phase lit =
      let mark = Vec.size st.trail in
      match propagate st [ lit ] with
      | exception Conflict ->
          undo_to st mark;
          false
      | () ->
          let r = residual_sat st (active_of st comp) in
          undo_to st mark;
          r
    in
    try_phase l || try_phase (Lit.neg l)
  end

let rec count_component st depth (comp : int array) : Bignat.t * int =
  check_time st;
  let key = if st.use_cache then signature st comp else [||] in
  match if st.use_cache then Cache.find_opt st.cache key else None with
  | Some hit ->
      st.hits <- st.hits + 1;
      hit
  | None ->
      if st.use_cache then st.misses <- st.misses + 1;
      let pvars, best = analyze_comp st comp in
      let result =
        if Array.length pvars = 0 then
          if residual_sat st comp then (Bignat.one, node_true)
          else (Bignat.zero, node_false)
        else begin
          if depth > st.max_depth then st.max_depth <- depth;
          let chi, hi, hi_fixed = branch st depth comp pvars best true in
          let clo, lo, lo_fixed = branch st depth comp pvars best false in
          (Bignat.add chi clo, mk_decision st best hi lo hi_fixed lo_fixed)
        end
      in
      if st.use_cache then Cache.replace st.cache key result;
      result

and branch st depth (comp : int array) (pvars : int array) v phase : Bignat.t * int * int array =
  let mark = Vec.size st.trail in
  match propagate st [ Lit.make v phase ] with
  | exception Conflict ->
      undo_to st mark;
      (Bignat.zero, node_false, [||])
  | () ->
      let fixed = fixed_since st mark in
      let active = active_of st comp in
      (* Projection vars of [comp] (other than [v]) still unassigned
         but no longer occurring in an active clause were freed by
         clause satisfaction: ×2 each.  The ones propagation assigned
         were forced: factor 1, accounted by their absence here. *)
      st.stamp <- st.stamp + 1;
      let stamp = st.stamp in
      Array.iter
        (fun ci ->
          Array.iter
            (fun l ->
              let u = Lit.var l in
              if st.is_proj.(u) && st.assign.(u) = -1 then st.pv_stamp.(u) <- stamp)
            st.clauses.(ci))
        active;
      let freed = ref 0 in
      Array.iter
        (fun u -> if st.assign.(u) = -1 && st.pv_stamp.(u) <> stamp then incr freed)
        pvars;
      let freed_vars = vanished st pvars stamp !freed in
      let comps = split_components st active in
      let total = ref Bignat.one in
      let children = ref [] in
      List.iter
        (fun sub ->
          let c, nd = count_component st (depth + 1) sub in
          total := Bignat.mul !total c;
          children := nd :: !children)
        comps;
      undo_to st mark;
      ( Bignat.shift_left !total !freed,
        mk_free st !freed freed_vars (mk_decomp st (List.rev !children)),
        fixed )

let make_state ~tracing ~use_cache ~deadline (cnf : Cnf.t) : state =
  let clauses = cnf.Cnf.clauses in
  let nclauses = Array.length clauses in
  let nvars = cnf.Cnf.nvars in
  let pos_build = Array.make (nvars + 1) [] in
  let neg_build = Array.make (nvars + 1) [] in
  for ci = nclauses - 1 downto 0 do
    Array.iter
      (fun l ->
        let v = Lit.var l in
        if Lit.sign l then pos_build.(v) <- ci :: pos_build.(v)
        else neg_build.(v) <- ci :: neg_build.(v))
      clauses.(ci)
  done;
  let proj = Cnf.projection_vars cnf in
  let is_proj = Array.make (nvars + 1) false in
  Array.iter (fun v -> is_proj.(v) <- true) proj;
  let trace =
    if not tracing then None
    else begin
      let b = { off = Vec.create ~dummy:0 (); words = Vec.create ~dummy:0 () } in
      ignore (open_node b D.tag_false);
      ignore (open_node b D.tag_true);
      Some b
    end
  in
  {
    clauses;
    len = Array.map Array.length clauses;
    pos_occ = Array.map Array.of_list pos_build;
    neg_occ = Array.map Array.of_list neg_build;
    is_proj;
    proj;
    assign = Array.make (nvars + 1) (-1);
    trail = Vec.create ~dummy:0 ();
    n_false = Array.make nclauses 0;
    sat_by = Array.make nclauses 0;
    activity = Array.make (nvars + 1) 0.0;
    act_inc = 1.0;
    cache = Cache.create 4096;
    use_cache;
    trace;
    node_count = 2;
    hits = 0;
    misses = 0;
    max_depth = 0;
    ticks = 0;
    deadline;
    var_stamp = Array.make (nvars + 1) 0;
    var_slot = Array.make (nvars + 1) 0;
    pv_stamp = Array.make (nvars + 1) 0;
    pv_occ = Array.make (nvars + 1) 0;
    stamp = 0;
    queue = Queue.create ();
  }

let count_root st nclauses : Bignat.t * int =
  let has_empty = ref false in
  for ci = 0 to nclauses - 1 do
    if st.len.(ci) = 0 then has_empty := true
  done;
  if !has_empty then (Bignat.zero, node_false)
  else begin
    let seeds = ref [] in
    for ci = nclauses - 1 downto 0 do
      if st.len.(ci) = 1 then seeds := st.clauses.(ci).(0) :: !seeds
    done;
    match propagate st !seeds with
    | exception Conflict -> (Bignat.zero, node_false)
    | () ->
        let active = active_of st (Array.init nclauses (fun i -> i)) in
        (* One root [Free] node folds every ×2 source together: vars
           occurring only in clauses root propagation satisfied, and
           vars never occurring at all.  Vars forced at the root are
           assigned, hence excluded (factor 1). *)
        st.stamp <- st.stamp + 1;
        let stamp = st.stamp in
        Array.iter
          (fun ci ->
            Array.iter
              (fun l ->
                let v = Lit.var l in
                if st.is_proj.(v) && st.assign.(v) = -1 then st.pv_stamp.(v) <- stamp)
              st.clauses.(ci))
          active;
        let free = ref 0 in
        Array.iter
          (fun v -> if st.assign.(v) = -1 && st.pv_stamp.(v) <> stamp then incr free)
          st.proj;
        let free_vars = vanished st st.proj stamp !free in
        let comps = split_components st active in
        let total = ref Bignat.one in
        let children = ref [] in
        List.iter
          (fun sub ->
            let c, nd = count_component st 1 sub in
            total := Bignat.mul !total c;
            children := nd :: !children)
          comps;
        ( Bignat.shift_left !total !free,
          mk_free st !free free_vars (mk_decomp st (List.rev !children)) )
  end

(* Shared driver: inprocess (optional), build state, compile.  The
   state lands in [st_out] before the search starts, so callers can
   report telemetry even when the search raises [Timeout]. *)
let run_engine ~tracing ~budget ~inprocess ~cache ~st_out (cnf0 : Cnf.t) : Bignat.t * int =
  let deadline = Option.map (fun b -> Mcml_obs.Obs.monotonic_s () +. b) budget in
  let cnf =
    if inprocess && Array.length cnf0.Cnf.clauses > 0 then
      (Inprocess.simplify cnf0).Inprocess.cnf
    else cnf0
  in
  (match deadline with
  | Some d when Mcml_obs.Obs.monotonic_s () > d -> raise Timeout
  | _ -> ());
  let st = make_state ~tracing ~use_cache:cache ~deadline cnf in
  st_out := Some st;
  count_root st (Array.length cnf.Cnf.clauses)

(* One engine run under the [count.exact] span and counters, shared by
   [count] and [Dnnf.compile] so the ledger covers both.  Returns the
   count, the root node and the final state. *)
let engine ~tracing ~budget ~inprocess ~cache (cnf : Cnf.t) : Bignat.t * int * state option =
  let st_out = ref None in
  let run () =
    let count, root = run_engine ~tracing ~budget ~inprocess ~cache ~st_out cnf in
    (count, root, !st_out)
  in
  if not (Mcml_obs.Obs.enabled ()) then run ()
  else begin
    let open Mcml_obs in
    let sp = Obs.start "count.exact" in
    let t0 = Obs.monotonic_s () in
    let attrs outcome =
      let nodes, hits, misses, depth, entries =
        match !st_out with
        | Some st -> (st.node_count, st.hits, st.misses, st.max_depth, Cache.length st.cache)
        | None -> (0, 0, 0, 0, 0)
      in
      [
        ("outcome", Obs.Str outcome);
        ("mode", Obs.Str (if tracing then "compile" else "count"));
        ("dnnf_nodes", Obs.Int nodes);
        ("comp_cache_hits", Obs.Int hits);
        ("comp_cache_misses", Obs.Int misses);
        ("cache_entries", Obs.Int entries);
        ("max_branch_depth", Obs.Int depth);
        ("proj_vars", Obs.Int (Array.length (Cnf.projection_vars cnf)));
        ("clauses", Obs.Int (Array.length cnf.Cnf.clauses));
        ("budget_s", match budget with Some b -> Obs.Float b | None -> Obs.Str "none");
        ("consumed_s", Obs.Float (Obs.monotonic_s () -. t0));
      ]
    in
    let account () =
      Obs.add "count.exact.calls" 1;
      match !st_out with
      | Some st ->
          Obs.add "count.exact.dnnf_nodes" st.node_count;
          Obs.add "count.exact.comp_cache_hits" st.hits;
          Obs.add "count.exact.comp_cache_misses" st.misses;
          Obs.observe "count.exact.branch_depth" (float_of_int st.max_depth)
      | None -> ()
    in
    match run () with
    | (count, _, _) as r ->
        account ();
        Obs.finish sp ~attrs:(("count", Obs.Str (Bignat.to_string count)) :: attrs "complete");
        r
    | exception Timeout ->
        account ();
        Obs.add "count.exact.timeouts" 1;
        Obs.finish sp ~attrs:(attrs "timeout");
        raise Timeout
  end

let count ?budget ?(inprocess = true) ?(cache = true) (cnf : Cnf.t) : Bignat.t =
  let count, _, _ = engine ~tracing:false ~budget ~inprocess ~cache cnf in
  count

let count_opt ?budget ?inprocess ?cache cnf =
  match count ?budget ?inprocess ?cache cnf with
  | c -> Some c
  | exception Timeout -> None

module Dnnf = struct
  include D

  (* The engine's count is the form's total.  The search undoes every
     branch, so the trail ends holding exactly what the root forced. *)
  let compile ?budget ?(inprocess = true) cnf : t =
    let total, root, st = engine ~tracing:true ~budget ~inprocess ~cache:true cnf in
    match st with
    | Some ({ trace = Some b; _ } as st) ->
        let append xs =
          Vec.push b.off (Vec.size b.words);
          Array.iter (Vec.push b.words) xs
        in
        append (fixed_since st 0);
        append (Cnf.projection_vars cnf);
        let n = Vec.size b.off and w = Vec.size b.words in
        let word k =
          if k > n then Vec.get b.words (k - n - 1)
          else n + 1 + if k = n then w else Vec.get b.off k
        in
        { code = Array.init (n + 1 + w) word; root; total }
    | _ -> assert false
end
