open Mcml_logic

type t = {
  name : string;
  pred : string;
  description : string;
  check : scope:int -> bool array -> bool;
  closed_form : int -> Bignat.t option;
  paper_scope : int;
  paper_scope_nosym : int;
}

let spec_source =
  {|
// Shared spec for the 16 relational properties of the MCML study.
sig S { r: set S }

pred Reflexive() { all s: S | s->s in r }
pred Irreflexive() { all s: S | s->s !in r }
pred Symmetric() { all s, t: S | s->t in r implies t->s in r }
pred Antisymmetric() { all s, t: S | s->t in r and t->s in r implies s = t }
pred Transitive() { all s, t, u: S | s->t in r and t->u in r implies s->u in r }
pred Connex() { all s, t: S | s->t in r or t->s in r }

pred Function() { all s: S | one s.r }
pred Functional() { all s: S | lone s.r }
pred Injective() { all s: S | one r.s }
pred Surjective() { all s: S | some r.s }
pred Bijective() { Function and Injective and Surjective }

pred Equivalence() { Reflexive and Symmetric and Transitive }
pred PreOrder() { Reflexive and Transitive }
pred PartialOrder() { Antisymmetric and Transitive }
pred NonStrictOrder() { Reflexive and Antisymmetric and Transitive }
pred StrictOrder() { Irreflexive and Transitive }
pred TotalOrder() { NonStrictOrder and Connex }
|}

(* Parsed-spec memo, shared by every analyzer.  Guarded by a mutex so
   that domains racing on the first call each get the (identical)
   parsed spec without tearing the cache. *)
let spec_cache = ref None
let spec_lock = Mutex.create ()

let spec () =
  Mutex.lock spec_lock;
  match
    match !spec_cache with
    | Some s -> s
    | None ->
        let s = Mcml_alloy.Parser.parse_spec spec_source in
        Mcml_alloy.Check.check_spec s;
        spec_cache := Some s;
        s
  with
  | s ->
      Mutex.unlock spec_lock;
      s
  | exception e ->
      Mutex.unlock spec_lock;
      raise e

let analyzer ~scope = Mcml_alloy.Analyzer.make (spec ()) ~scope

(* --- direct checkers --------------------------------------------------- *)

let get m n i j = m.((i * n) + j)

let for_all_atoms n f =
  let rec go i = i >= n || (f i && go (i + 1)) in
  go 0

let reflexive ~scope:n m = for_all_atoms n (fun i -> get m n i i)
let irreflexive ~scope:n m = for_all_atoms n (fun i -> not (get m n i i))

let symmetric ~scope:n m =
  for_all_atoms n (fun i ->
      for_all_atoms n (fun j -> (not (get m n i j)) || get m n j i))

let antisymmetric ~scope:n m =
  for_all_atoms n (fun i ->
      for_all_atoms n (fun j -> i = j || not (get m n i j && get m n j i)))

let transitive ~scope:n m =
  for_all_atoms n (fun i ->
      for_all_atoms n (fun j ->
          (not (get m n i j))
          || for_all_atoms n (fun k -> (not (get m n j k)) || get m n i k)))

let connex ~scope:n m =
  for_all_atoms n (fun i -> for_all_atoms n (fun j -> get m n i j || get m n j i))

let out_degree m n i =
  let d = ref 0 in
  for j = 0 to n - 1 do
    if get m n i j then incr d
  done;
  !d

let in_degree m n j =
  let d = ref 0 in
  for i = 0 to n - 1 do
    if get m n i j then incr d
  done;
  !d

let function_ ~scope:n m = for_all_atoms n (fun i -> out_degree m n i = 1)
let functional ~scope:n m = for_all_atoms n (fun i -> out_degree m n i <= 1)
let injective ~scope:n m = for_all_atoms n (fun j -> in_degree m n j = 1)
let surjective ~scope:n m = for_all_atoms n (fun j -> in_degree m n j >= 1)
let bijective ~scope m = function_ ~scope m && injective ~scope m && surjective ~scope m
let equivalence ~scope m = reflexive ~scope m && symmetric ~scope m && transitive ~scope m
let preorder ~scope m = reflexive ~scope m && transitive ~scope m
let partialorder ~scope m = antisymmetric ~scope m && transitive ~scope m
let nonstrictorder ~scope m = reflexive ~scope m && partialorder ~scope m
let strictorder ~scope m = irreflexive ~scope m && transitive ~scope m
let totalorder ~scope m = nonstrictorder ~scope m && connex ~scope m

(* --- closed forms ------------------------------------------------------- *)

let rec power b e = if e = 0 then Bignat.one else Bignat.mul (power b (e - 1)) b

let factorial n =
  let rec go acc k = if k > n then acc else go (Bignat.mul acc (Bignat.of_int k)) (k + 1) in
  go Bignat.one 2

let choose2 n = n * (n - 1) / 2

(* Bell numbers via the Bell triangle. *)
let bell n =
  let row = ref [| Bignat.one |] in
  for _ = 2 to n do
    let prev = !row in
    let len = Array.length prev in
    let next = Array.make (len + 1) Bignat.zero in
    next.(0) <- prev.(len - 1);
    for i = 1 to len do
      next.(i) <- Bignat.add next.(i - 1) prev.(i - 1)
    done;
    row := next
  done;
  if n = 0 then Bignat.one else (!row).(Array.length !row - 1)

(* Labeled posets (OEIS A001035) and labeled topologies / preorders
   (OEIS A000798); no closed form — table up to n = 7 suffices for
   every scope this reproduction runs exactly. *)
let posets_table = [| 1; 1; 3; 19; 219; 4231; 130023; 6129859 |]
let topologies_table = [| 1; 1; 4; 29; 355; 6942; 209527; 9535241 |]

let table_lookup table n =
  if n >= 0 && n < Array.length table then Some (Bignat.of_int table.(n)) else None

let cf_antisymmetric n = Some (Bignat.mul (power (Bignat.of_int 3) (choose2 n)) (Bignat.pow2 n))
let cf_bijective n = Some (factorial n)
let cf_connex n = Some (power (Bignat.of_int 3) (choose2 n))
let cf_equivalence n = Some (bell n)
let cf_function n = Some (power (Bignat.of_int n) n)
let cf_functional n = Some (power (Bignat.of_int (n + 1)) n)
let cf_injective n = Some (power (Bignat.of_int n) n)
let cf_irreflexive n = Some (Bignat.pow2 (n * n - n))
let cf_nonstrictorder n = table_lookup posets_table n
let cf_partialorder n =
  Option.map (fun p -> Bignat.shift_left p n) (table_lookup posets_table n)
let cf_preorder n = table_lookup topologies_table n
let cf_reflexive n = Some (Bignat.pow2 (n * n - n))
let cf_strictorder n = table_lookup posets_table n
let all_ones n = Bignat.sub (Bignat.pow2 n) Bignat.one

let cf_surjective n = Some (power (all_ones n) n)
let cf_totalorder n = Some (factorial n)
(* Labeled transitive relations (OEIS A006905), known up to n = 7. *)
let transitive_table = [| 1; 2; 13; 171; 3994; 154303; 9415189; 950684452 |]
let cf_transitive n = table_lookup transitive_table n

(* --- registry ------------------------------------------------------------ *)

let mk name pred description check closed_form paper_scope paper_scope_nosym =
  { name; pred; description; check; closed_form; paper_scope; paper_scope_nosym }

let all =
  [
    mk "Antisymmetric" "Antisymmetric"
      "s->t and t->s only when s = t" antisymmetric cf_antisymmetric 5 5;
    mk "Bijective" "Bijective" "a permutation: one image and one preimage each"
      bijective cf_bijective 14 14;
    mk "Connex" "Connex" "every pair related one way or the other (implies reflexive)"
      connex cf_connex 6 6;
    mk "Equivalence" "Equivalence" "reflexive, symmetric, transitive" equivalence
      cf_equivalence 20 20;
    mk "Function" "Function" "exactly one image per atom" function_ cf_function 8 8;
    mk "Functional" "Functional" "at most one image per atom" functional cf_functional
      8 8;
    mk "Injective" "Injective" "exactly one preimage per atom" injective cf_injective 8
      8;
    mk "Irreflexive" "Irreflexive" "no self-loops" irreflexive cf_irreflexive 5 5;
    mk "NonStrictOrder" "NonStrictOrder" "reflexive partial order" nonstrictorder
      cf_nonstrictorder 7 7;
    mk "PartialOrder" "PartialOrder" "antisymmetric and transitive" partialorder
      cf_partialorder 6 6;
    mk "PreOrder" "PreOrder" "reflexive and transitive" preorder cf_preorder 7 7;
    mk "Reflexive" "Reflexive" "all self-loops present" reflexive cf_reflexive 5 5;
    mk "StrictOrder" "StrictOrder" "irreflexive and transitive" strictorder
      cf_strictorder 7 7;
    mk "Surjective" "Surjective" "at least one preimage per atom" surjective
      cf_surjective 14 14;
    mk "TotalOrder" "TotalOrder" "a linear (total) order" totalorder cf_totalorder 13
      13;
    mk "Transitive" "Transitive" "transitive relation" transitive cf_transitive 6 6;
  ]

let find name =
  let lower = String.lowercase_ascii name in
  List.find_opt (fun p -> String.lowercase_ascii p.name = lower) all

let find_exn name =
  match find name with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Props.find_exn: unknown property %S" name)

let select_scope prop ~symmetry ~threshold ~max_scope =
  let rec go scope =
    if scope >= max_scope then max_scope
    else begin
      let count =
        match if symmetry then None else prop.closed_form scope with
        | Some c -> c
        | None ->
            Mcml_counting.Exact.count
              (Mcml_alloy.Analyzer.cnf ~symmetry (analyzer ~scope) ~pred:prop.pred)
      in
      if Bignat.compare count (Bignat.of_int threshold) >= 0 then scope else go (scope + 1)
    end
  in
  if not (Mcml_obs.Obs.enabled ()) then go 1
  else begin
    let open Mcml_obs in
    let sp = Obs.start "props.select_scope" in
    let scope = go 1 in
    Obs.finish sp
      ~attrs:
        [
          ("prop", Obs.Str prop.name);
          ("symmetry", Obs.Bool symmetry);
          ("threshold", Obs.Int threshold);
          ("scope", Obs.Int scope);
        ];
    scope
  end
