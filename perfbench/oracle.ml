open Mcml_logic
module Props = Mcml_props.Props
module Experiments = Mcml.Experiments
module Accmc = Mcml.Accmc
module Diffmc = Mcml.Diffmc
module Decision_tree = Mcml_ml.Decision_tree

let brute_max_bits = 16

(* Alloy's partial symmetry breaking restated on a row-major adjacency
   matrix, so it shares no code with the translation it checks: the
   instance is lexicographically no larger (false < true) than its
   image under each adjacent atom transposition, i.e. at the first
   difference it holds false where its image holds true. *)
let lex_leader ~scope (bits : bool array) =
  let leq_swap k =
    let perm i = if i = k then k + 1 else if i = k + 1 then k else i in
    let rec go idx =
      idx = scope * scope
      ||
      let a = bits.(idx) and b = bits.((perm (idx / scope) * scope) + perm (idx mod scope)) in
      if a = b then go (idx + 1) else b
    in
    go 0
  in
  let rec all k = k > scope - 2 || (leq_swap k && all (k + 1)) in
  all 0

(* Every input of an evaluation universe (the full space, or its
   lex-leaders), bit b of the enumeration index being feature b — the
   layout of [Props.check], [Decision_tree.predict] and the analyzer's
   primary variables alike.  Memoized: the workloads ask for the same
   few universes many times. *)
let universes : (int * bool, bool array array) Hashtbl.t = Hashtbl.create 4

let universe ~scope ~symmetry =
  match Hashtbl.find_opt universes (scope, symmetry) with
  | Some u -> u
  | None ->
      let n = scope * scope in
      if n > brute_max_bits then invalid_arg "Oracle.universe: space too large";
      let all =
        List.init (1 lsl n) (fun mask -> Array.init n (fun b -> mask land (1 lsl b) <> 0))
      in
      let u =
        Array.of_list (if symmetry then List.filter (lex_leader ~scope) all else all)
      in
      Hashtbl.add universes (scope, symmetry) u;
      u

(* [Props.check] over a universe, aligned with it. *)
let truths : (string * int * bool, bool array) Hashtbl.t = Hashtbl.create 64

let truth (prop : Props.t) ~scope ~symmetry =
  let key = (prop.Props.name, scope, symmetry) in
  match Hashtbl.find_opt truths key with
  | Some t -> t
  | None ->
      let t = Array.map (prop.Props.check ~scope) (universe ~scope ~symmetry) in
      Hashtbl.add truths key t;
      t

let closed_form (prop : Props.t) scope =
  match prop.Props.closed_form scope with
  | Some c -> c
  | None -> invalid_arg ("Oracle: no closed form for " ^ prop.Props.name)

let references : (string * int * bool * bool, Bignat.t) Hashtbl.t = Hashtbl.create 160

let count_reference (prop : Props.t) ~scope ~symmetry ~negate =
  let key = (prop.Props.name, scope, symmetry, negate) in
  match Hashtbl.find_opt references key with
  | Some c -> c
  | None ->
      let n = scope * scope in
      let c =
        match prop.Props.closed_form scope with
        | Some cf when not symmetry -> if negate then Bignat.sub (Bignat.pow2 n) cf else cf
        | _ when n <= brute_max_bits ->
            Bignat.of_int
              (Array.fold_left
                 (fun acc t -> if t <> negate then acc + 1 else acc)
                 0 (truth prop ~scope ~symmetry))
        | _ -> (
            match
              Mcml_alloy.Analyzer.count ~negate ~symmetry
                ~backend:Mcml_counting.Counter.Exact (Props.analyzer ~scope)
                ~pred:prop.Props.pred
            with
            | Some o -> o.Mcml_counting.Counter.count
            | None -> invalid_arg "Oracle.count_reference: exact count timed out")
      in
      Hashtbl.add references key c;
      c

let mismatch what ~got ~want =
  if Bignat.equal got want then []
  else [ Printf.sprintf "%s = %s, expected %s" what (Bignat.to_string got) (Bignat.to_string want) ]

let check_count prop ~scope ~symmetry ~negate got =
  mismatch
    (Printf.sprintf "count %s scope %d sym %b neg %b" prop.Props.name scope symmetry negate)
    ~got
    ~want:(count_reference prop ~scope ~symmetry ~negate)

let ( ++ ) = Bignat.add

let true_path_inputs tree ~n =
  List.fold_left
    (fun acc (path, label) ->
      if not label then acc
      else
        let fixed = List.length (List.sort_uniq compare (List.map fst path)) in
        acc ++ Bignat.pow2 (n - fixed))
    Bignat.zero (Decision_tree.paths tree)

let check_accmc (prop : Props.t) ~scope ~eval_symmetry tree (c : Accmc.counts) =
  let n = scope * scope in
  let what field =
    Printf.sprintf "accmc %s scope %d sym %b: %s" prop.Props.name scope eval_symmetry field
  in
  if n <= brute_max_bits then begin
    let tp = ref 0 and fp = ref 0 and tn = ref 0 and fn = ref 0 in
    let truth = truth prop ~scope ~symmetry:eval_symmetry in
    Array.iteri
      (fun i x ->
        incr
          (match (Decision_tree.predict tree x, truth.(i)) with
          | true, true -> tp
          | true, false -> fp
          | false, false -> tn
          | false, true -> fn))
      (universe ~scope ~symmetry:eval_symmetry);
    List.concat_map
      (fun (field, got, want) -> mismatch (what field) ~got ~want:(Bignat.of_int !want))
      [ ("tp", c.Accmc.tp, tp); ("fp", c.Accmc.fp, fp); ("tn", c.Accmc.tn, tn); ("fn", c.Accmc.fn, fn) ]
  end
  else if eval_symmetry then []
  else
    mismatch (what "tp+fp") ~got:(c.Accmc.tp ++ c.Accmc.fp) ~want:(true_path_inputs tree ~n)
    @ mismatch (what "tp+fn") ~got:(c.Accmc.tp ++ c.Accmc.fn) ~want:(closed_form prop scope)
    @ mismatch (what "total")
        ~got:(c.Accmc.tp ++ c.Accmc.fp ++ c.Accmc.tn ++ c.Accmc.fn)
        ~want:(Bignat.pow2 n)

(* The first answer of each group is the reference for the rest. *)
let agree what groups =
  let seen = Hashtbl.create 64 in
  List.concat_map
    (fun (key, v) ->
      match Hashtbl.find_opt seen key with
      | None ->
          Hashtbl.add seen key v;
          []
      | Some first -> mismatch (what key) ~got:v ~want:first)
    groups

let check_accmc_groups answers =
  let total (c : Accmc.counts) = c.Accmc.tp ++ c.Accmc.fp ++ c.Accmc.tn ++ c.Accmc.fn in
  agree
    (fun (p, s, sym) -> Printf.sprintf "accmc %s scope %d sym %b: tp+fn" p s sym)
    (List.map (fun (k, (c : Accmc.counts)) -> (k, c.Accmc.tp ++ c.Accmc.fn)) answers)
  @ agree
      (fun (s, sym) -> Printf.sprintf "accmc scope %d sym %b: universe size" s sym)
      (List.map (fun ((_, s, sym), c) -> ((s, sym), total c)) answers)

(* --- tables ------------------------------------------------------------- *)

let parse what s =
  match Bignat.of_string s with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "%s: %S is not a count (timeout?)" what s)

let check_table1 ~epsilon (r : Experiments.t1_row) =
  let what col = Printf.sprintf "table1 %s %s" r.Experiments.t1_prop col in
  let prop = Props.find_exn r.Experiments.t1_prop in
  let in_band col ~exact s =
    match parse (what col) s with
    | Error e -> [ e ]
    | Ok est ->
        let e = Bignat.to_float est and x = Bignat.to_float exact in
        if e *. (1.0 +. epsilon) >= x && e <= x *. (1.0 +. epsilon) then []
        else [ Printf.sprintf "%s = %s outside the (1+%g) band of %s" (what col) s epsilon (Bignat.to_string exact) ]
  in
  match
    ( parse (what "exact_sym") r.Experiments.t1_exact_sym,
      parse (what "exact_nosym") r.Experiments.t1_exact_nosym )
  with
  | Error e, _ | _, Error e -> [ e ]
  | Ok sym, Ok nosym ->
      mismatch (what "exact_nosym") ~got:nosym ~want:(closed_form prop r.Experiments.t1_scope)
      @ (let a = r.Experiments.t1_alloy in
         if String.starts_with ~prefix:">=" a then []
         else match parse (what "alloy") a with Error e -> [ e ] | Ok n -> mismatch (what "alloy") ~got:n ~want:sym)
      @ in_band "approx_sym" ~exact:sym r.Experiments.t1_approx_sym
      @ in_band "approx_nosym" ~exact:nosym r.Experiments.t1_approx_nosym

let check_performance (rows : Experiments.perf_row list) =
  agree
    (fun (a, b) -> Printf.sprintf "ratio %d:%d: test-set size" a b)
    (List.map
       (fun (r : Experiments.perf_row) ->
         let c = r.Experiments.p_metrics in
         let open Mcml_ml.Metrics in
         (r.Experiments.p_ratio, Bignat.of_int (int_of_float (c.tp +. c.fp +. c.tn +. c.fn))))
       rows)

let check_dt ~eval_symmetry (r : Experiments.dt_row) =
  let scope = r.Experiments.d_scope in
  let n = scope * scope in
  let what = Printf.sprintf "dt %s scope %d sym %b" r.Experiments.d_prop scope eval_symmetry in
  match r.Experiments.d_phi with
  | None -> [ what ^ ": timed out" ]
  | Some c ->
      (if Accmc.check_total c ~nprimary:n then [] else [ what ^ ": counts exceed 2^n" ])
      @
      if eval_symmetry then []
      else
        mismatch (what ^ ": total")
          ~got:(c.Accmc.tp ++ c.Accmc.fp ++ c.Accmc.tn ++ c.Accmc.fn)
          ~want:(Bignat.pow2 n)
        @ mismatch (what ^ ": tp+fn")
            ~got:(c.Accmc.tp ++ c.Accmc.fn)
            ~want:(closed_form (Props.find_exn r.Experiments.d_prop) scope)

let check_diff (r : Experiments.diff_row) =
  let what = Printf.sprintf "diff %s scope %d" r.Experiments.f_prop r.Experiments.f_scope in
  match r.Experiments.f_counts with
  | None -> [ what ^ ": timed out" ]
  | Some c ->
      mismatch (what ^ ": total")
        ~got:(c.Diffmc.tt ++ c.Diffmc.tf ++ c.Diffmc.ft ++ c.Diffmc.ff)
        ~want:(Bignat.pow2 (r.Experiments.f_scope * r.Experiments.f_scope))

let check_class_ratio (r : Experiments.t9_row) =
  let p = r.Experiments.r_mcml in
  if p >= 0.0 && p <= 1.0 then []
  else
    [
      Printf.sprintf "class ratio %d:%d: MCML precision %g (timeout?)" (fst r.Experiments.r_ratio)
        (snd r.Experiments.r_ratio) p;
    ]
