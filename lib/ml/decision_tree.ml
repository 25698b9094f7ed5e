open Mcml_logic

type 'a tree = Leaf of 'a | Split of { feature : int; if_false : 'a tree; if_true : 'a tree }
type node = bool tree
type t = { nfeatures : int; root : node }

type params = {
  max_depth : int option;
  min_samples_split : int;
  max_features : int option;
}

let default_params = { max_depth = None; min_samples_split = 2; max_features = None }

(* The one CART grower.  A node owns the samples [idx.(lo) .. idx.(hi - 1)]:
   [node] gives their impurity and the leaf they would make; for a node
   that will split, [split idx lo hi] gives the score of splitting them
   on a feature ([infinity] when a side would be empty).  The candidates
   are every feature in order, or a fresh draw of [max_features] of them
   at each split node.  The lowest score wins, the first on a tie, and
   under [strict] only below the node's impurity.  Only the winner is
   partitioned, stably and in place, so a criterion sees each side's
   samples in their order in [ds]. *)
let grow ~node ~split ~strict ?rng params (ds : Dataset.t) =
  let n = Dataset.size ds and k = ds.Dataset.nfeatures in
  let samples = ds.Dataset.samples in
  let idx = Array.init n Fun.id and scratch = Array.make n 0 in
  let pool = Array.init k Fun.id in
  let ncand =
    match (params.max_features, rng) with Some m, Some _ when m < k -> m | _ -> k
  in
  (* partial Fisher-Yates over a fresh copy of the features *)
  let draw rng =
    for i = 0 to k - 1 do
      pool.(i) <- i
    done;
    for i = 0 to ncand - 1 do
      let j = i + Splitmix.int rng (k - i) in
      let tmp = pool.(i) in
      pool.(i) <- pool.(j);
      pool.(j) <- tmp
    done
  in
  (* the true side moves to the front, the false side goes through
     [scratch]; each keeps its order *)
  let partition f lo hi =
    let mid = ref lo and nfalse = ref 0 in
    for i = lo to hi - 1 do
      let s = idx.(i) in
      if samples.(s).Dataset.features.(f) then begin
        idx.(!mid) <- s;
        incr mid
      end
      else begin
        scratch.(!nfalse) <- s;
        incr nfalse
      end
    done;
    Array.blit scratch 0 idx !mid !nfalse;
    !mid
  in
  let too_deep depth = match params.max_depth with Some d -> depth >= d | None -> false in
  let rec go lo hi depth =
    let impurity, leaf = node idx lo hi in
    if impurity = 0.0 || hi - lo < params.min_samples_split || too_deep depth then Leaf leaf
    else begin
      if ncand < k then Option.iter draw rng;
      let score_of = split idx lo hi in
      let best = ref (if strict then impurity else infinity) and feature = ref (-1) in
      for c = 0 to ncand - 1 do
        let score = score_of pool.(c) in
        if score < !best then begin
          best := score;
          feature := pool.(c)
        end
      done;
      if !feature < 0 then Leaf leaf
      else begin
        let mid = partition !feature lo hi in
        (* true side first: a forest's per-node draws follow this order *)
        let if_true = go lo mid (depth + 1) in
        let if_false = go mid hi (depth + 1) in
        Split { feature = !feature; if_false; if_true }
      end
    end
  in
  go 0 n 0

(* Gini impurity of a (weighted) label distribution. *)
let gini pos neg =
  let total = pos +. neg in
  if total = 0.0 then 0.0
  else begin
    let p = pos /. total and q = neg /. total in
    1.0 -. (p *. p) -. (q *. q)
  end

let train ?(params = default_params) ?weights ?rng (ds : Dataset.t) : t =
  let n = Dataset.size ds in
  let weights =
    match weights with
    | Some w ->
        if Array.length w <> n then invalid_arg "Decision_tree.train: weights length";
        w
    | None -> Array.make n 1.0
  in
  let samples = ds.Dataset.samples in
  let node idx lo hi =
    let pos = ref 0.0 and neg = ref 0.0 in
    for i = lo to hi - 1 do
      let s = idx.(i) in
      if samples.(s).Dataset.label then pos := !pos +. weights.(s)
      else neg := !neg +. weights.(s)
    done;
    (gini !pos !neg, !pos > !neg)
  in
  let split idx lo hi f =
    let tp = ref 0.0 and tn = ref 0.0 and fp = ref 0.0 and fn = ref 0.0 in
    let ntrue = ref 0 in
    for i = lo to hi - 1 do
      let s = idx.(i) in
      let x = samples.(s) and w = weights.(s) in
      if x.Dataset.features.(f) then begin
        incr ntrue;
        if x.Dataset.label then tp := !tp +. w else tn := !tn +. w
      end
      else if x.Dataset.label then fp := !fp +. w
      else fn := !fn +. w
    done;
    if !ntrue = 0 || !ntrue = hi - lo then infinity
    else begin
      let wt = !tp +. !tn and wf = !fp +. !fn in
      ((wt *. gini !tp !tn) +. (wf *. gini !fp !fn)) /. (wt +. wf)
    end
  in
  (* like scikit-learn's default CART, split as long as any valid split
     exists (even with zero Gini improvement — needed to fit parity-like
     targets) *)
  { nfeatures = ds.Dataset.nfeatures; root = grow ~node ~split ~strict:false ?rng params ds }

let regression_tree ~max_depth (ds : Dataset.t) ~targets =
  if Array.length targets <> Dataset.size ds then
    invalid_arg "Decision_tree.regression_tree: targets length";
  let samples = ds.Dataset.samples and k = ds.Dataset.nfeatures in
  let sums = Array.make 2 0.0 and counts = Array.make 2 0 and errors = Array.make 2 0.0 in
  let means = Array.make 2 0.0 in
  (* Per side of feature [f] (one side when [f < 0]): the sum and count
     of the targets, then the squared deviations from their mean.
     [pow] is not correctly rounded, so [d *. d] differs from
     [d ** 2.0] in the last bit on about 0.1% of inputs, which could
     flip a near-tied split: the squares stay [** 2.0]. *)
  let squared_errors idx lo hi f =
    Array.fill sums 0 2 0.0;
    Array.fill counts 0 2 0;
    Array.fill errors 0 2 0.0;
    for i = lo to hi - 1 do
      let s = idx.(i) in
      let j = if f < 0 then 0 else Bool.to_int samples.(s).Dataset.features.(f) in
      sums.(j) <- sums.(j) +. targets.(s);
      counts.(j) <- counts.(j) + 1
    done;
    means.(0) <- sums.(0) /. float_of_int counts.(0);
    means.(1) <- sums.(1) /. float_of_int counts.(1);
    for i = lo to hi - 1 do
      let s = idx.(i) in
      let j = if f < 0 then 0 else Bool.to_int samples.(s).Dataset.features.(f) in
      errors.(j) <- errors.(j) +. ((targets.(s) -. means.(j)) ** 2.0)
    done
  in
  let node idx lo hi =
    squared_errors idx lo hi (-1);
    (errors.(0), means.(0))
  in
  let exact idx lo hi f =
    squared_errors idx lo hi f;
    if counts.(0) = 0 || counts.(1) = 0 then infinity else errors.(0) +. errors.(1)
  in
  (* The screen.  A node that will split first makes one pass over its
     samples for Q = Σ t² and, per feature and side j, S_j = Σ t and
     n_j, each side summed directly.  Q − S₀²/n₀ − S₁²/n₁ is the split's
     squared error in exact arithmetic; only the features whose estimate
     is within 2δ of the least get the exact score above.

     The bound, to first order in u = ε/2, with n the node's size, Q_j
     side j's Σ t² and pow within one ulp:
     - the estimate is within (3n + 4)·u·Q of the true error: Q̂ within
       n·u·Q; Ŝ_j within n_j·u·Σ|t|, so Ŝ_j² within 2·n_j²·u·Q_j
       (Cauchy–Schwarz) and Ŝ_j²/n_j within (2n_j + 2)·u·Q_j with its
       own two roundings; two subtractions, u·Q each;
     - the exact score is within (n + 4)·u·Q: a side mean off by Δ adds
       only n_j·Δ², as the deviations sum to zero; a square carries 4u
       (subtraction, squaring, pow), a side's sum (n_j − 1)·u, the final
       addition u.
     So |estimate − exact| ≤ (4n + 8)·u·Q, and δ = 4·(n + 8)·ε·(Q +
     min_float) = (8n + 64)·u·(Q + min_float) is over twice that; the
     rest covers second-order terms, rounding δ and the cutoff, and
     underflow (a sum that underflows is exact; a product or quotient
     loses at most u·min_float).  If f has the least exact score and g
     the least estimate, est f ≤ exact f + δ ≤ exact g + δ ≤ est g + 2δ:
     every feature tied at the least exact score is scored, so the
     winner, the first on a tie and the strict-improvement test are
     those of scoring all.  A cutoff that is not finite (a square or a
     sum overflowed, or no split is valid) scores every feature. *)
  let side_sums = Array.make (2 * k) 0.0 and set_counts = Array.make k 0 in
  let estimates = Array.make k 0.0 in
  let split idx lo hi =
    Array.fill side_sums 0 (2 * k) 0.0;
    Array.fill set_counts 0 k 0;
    let q = ref 0.0 in
    for i = lo to hi - 1 do
      let s = idx.(i) in
      let t = targets.(s) and x = samples.(s).Dataset.features in
      q := !q +. (t *. t);
      for f = 0 to k - 1 do
        let j = Bool.to_int x.(f) in
        side_sums.((2 * f) + j) <- side_sums.((2 * f) + j) +. t;
        set_counts.(f) <- set_counts.(f) + j
      done
    done;
    let n = hi - lo and least = ref infinity in
    for f = 0 to k - 1 do
      let n1 = set_counts.(f) in
      let n0 = n - n1 in
      let e =
        if n0 = 0 || n1 = 0 then infinity
        else
          let s0 = side_sums.(2 * f) and s1 = side_sums.((2 * f) + 1) in
          !q -. (s0 *. s0 /. float_of_int n0) -. (s1 *. s1 /. float_of_int n1)
      in
      estimates.(f) <- e;
      if e < !least then least := e
    done;
    let delta = 4.0 *. float_of_int (n + 8) *. epsilon_float *. (!q +. Float.min_float) in
    let cutoff = !least +. (2.0 *. delta) in
    if Float.is_finite cutoff then fun f ->
      if estimates.(f) <= cutoff then exact idx lo hi f else infinity
    else exact idx lo hi
  in
  grow ~node ~split ~strict:true { default_params with max_depth = Some max_depth } ds

let rec leaf tree features =
  match tree with
  | Leaf v -> v
  | Split { feature; if_false; if_true } ->
      leaf (if features.(feature) then if_true else if_false) features

let predict t features = leaf t.root features

let paths t =
  let acc = ref [] in
  let rec go node conditions =
    match node with
    | Leaf b -> acc := (List.rev conditions, b) :: !acc
    | Split { feature; if_false; if_true } ->
        go if_true ((feature, true) :: conditions);
        go if_false ((feature, false) :: conditions)
  in
  go t.root [];
  List.rev !acc

let num_leaves t =
  let rec go = function
    | Leaf _ -> 1
    | Split { if_false; if_true; _ } -> go if_false + go if_true
  in
  go t.root

let depth t =
  let rec go = function
    | Leaf _ -> 0
    | Split { if_false; if_true; _ } -> 1 + max (go if_false) (go if_true)
  in
  go t.root

let eval_all t ~scope_bits oracle =
  if scope_bits > 24 then invalid_arg "Decision_tree.eval_all: too many bits";
  let tp = ref 0 and fp = ref 0 and tn = ref 0 and fn = ref 0 in
  let features = Array.make t.nfeatures false in
  for mask = 0 to (1 lsl scope_bits) - 1 do
    for b = 0 to scope_bits - 1 do
      features.(b) <- mask land (1 lsl b) <> 0
    done;
    match (predict t features, oracle features) with
    | true, true -> incr tp
    | true, false -> incr fp
    | false, false -> incr tn
    | false, true -> incr fn
  done;
  {
    Metrics.tp = float_of_int !tp;
    fp = float_of_int !fp;
    tn = float_of_int !tn;
    fn = float_of_int !fn;
  }

let pp fmt t =
  let rec go indent = function
    | Leaf b -> Format.fprintf fmt "%s=> %b@." indent b
    | Split { feature; if_false; if_true } ->
        Format.fprintf fmt "%sx%d?@." indent feature;
        go (indent ^ "  ") if_false;
        go (indent ^ "  ") if_true
  in
  go "" t.root
