open Mcml_logic

type t = { spec : Ast.spec; scope : int }

let make spec ~scope =
  Check.check_spec spec;
  if scope < 1 then raise (Check.Error "scope must be at least 1");
  { spec; scope }

let of_source src ~scope =
  let spec = Parser.parse_spec src in
  make spec ~scope

let field_index t name =
  let rec go k = function
    | [] -> raise (Check.Error (Printf.sprintf "unknown field %S" name))
    | (f : Ast.field) :: rest -> if f.Ast.field_name = name then k else go (k + 1) rest
  in
  go 0 t.spec.Ast.fields

let nprimary t = List.length t.spec.Ast.fields * t.scope * t.scope

let state_space t = Bignat.pow2 (nprimary t)

let var_of t ~field i j =
  let n = t.scope in
  if i < 0 || i >= n || j < 0 || j >= n then invalid_arg "Analyzer.var_of: atom out of scope";
  (field_index t field * n * n) + (i * n) + j + 1

module FSem = Semantics.Make (Semantics.Formulas)
module BSem = Semantics.Make (Semantics.Bools)

let translate ~negate ~symmetry t ~pred =
  let env =
    {
      FSem.scope = t.scope;
      field = (fun name i j -> Formula.var (var_of t ~field:name i j));
      spec = t.spec;
    }
  in
  let phi = FSem.pred env pred in
  let phi = if negate then Formula.not_ phi else phi in
  if symmetry then
    Formula.and_
      [ phi; Symmetry.breaking_formula ~var_of:(fun ~field i j -> var_of t ~field i j) t.spec ~scope:t.scope ]
  else phi

let formula ?(negate = false) ?(symmetry = false) t ~pred =
  if not (Mcml_obs.Obs.enabled ()) then translate ~negate ~symmetry t ~pred
  else
    let open Mcml_obs in
    Obs.with_span "alloy.translate"
      ~attrs:(fun () -> [ ("pred", Obs.Str pred) ])
      (fun () -> translate ~negate ~symmetry t ~pred)

let cnf ?negate ?symmetry t ~pred =
  Tseitin.cnf_of ~nprimary:(nprimary t) (formula ?negate ?symmetry t ~pred)

(* Compile once, then read the trace, with no SAT call and no blocking
   clause.  [complete] is decided by the compile's count: a complete set is
   walked in the trace's deterministic depth-first order, and a capped
   one is a uniform sample, because a DFS prefix shares the decisions
   near the root and would skew the training sets built from it. *)
let enumerate_core ?symmetry ?(limit = max_int) ?(seed = 0) t ~pred =
  let module Dnnf = Mcml_counting.Exact.Dnnf in
  let dnnf = Dnnf.compile (cnf ?symmetry t ~pred) in
  let complete = Bignat.compare (Dnnf.total dnnf) (Bignat.of_int limit) <= 0 in
  let sp = Mcml_obs.Obs.start "sat.enumerate" in
  let t0 = if Mcml_obs.Obs.enabled () then Mcml_obs.Obs.monotonic_s () else 0.0 in
  let instances = ref [] in
  let emit bits = instances := Instance.of_bits t.spec ~scope:t.scope bits :: !instances in
  if complete then Dnnf.iter_models dnnf emit
  else Dnnf.sample_models ~rng:(Splitmix.create seed) ~limit dnnf emit;
  let instances = List.rev !instances in
  if Mcml_obs.Obs.enabled () then begin
    let open Mcml_obs in
    let n = List.length instances in
    let dt = Obs.monotonic_s () -. t0 in
    Obs.add "enumerate.models" n;
    Obs.finish sp
      ~attrs:
        [
          ("models", Obs.Int n);
          ("dnnf_nodes", Obs.Int (Dnnf.size dnnf));
          ("complete", Obs.Bool complete);
          ("models_per_sec", Obs.Float (if dt > 0.0 then float_of_int n /. dt else 0.0));
        ]
  end;
  (instances, complete)

let enumerate ?symmetry ?limit ?seed t ~pred =
  if not (Mcml_obs.Obs.enabled ()) then enumerate_core ?symmetry ?limit ?seed t ~pred
  else begin
    let open Mcml_obs in
    let sp = Obs.start "alloy.enumerate" in
    let t0 = Obs.monotonic_s () in
    let ((instances, complete) as r) = enumerate_core ?symmetry ?limit ?seed t ~pred in
    let n = List.length instances in
    let dt = Obs.monotonic_s () -. t0 in
    Obs.finish sp
      ~attrs:
        [
          ("pred", Obs.Str pred);
          ("scope", Obs.Int t.scope);
          ("symmetry", Obs.Bool (Option.value symmetry ~default:false));
          ("solutions", Obs.Int n);
          ("complete", Obs.Bool complete);
          ("solutions_per_sec", Obs.Float (if dt > 0.0 then float_of_int n /. dt else 0.0));
        ];
    r
  end

let evaluate t ~pred inst =
  if inst.Instance.scope <> t.scope then
    invalid_arg "Analyzer.evaluate: instance scope mismatch";
  let env =
    {
      BSem.scope = t.scope;
      field = (fun name i j -> Instance.get inst ~field:name i j);
      spec = t.spec;
    }
  in
  BSem.pred env pred

let count ?negate ?symmetry ?budget ?cache ~backend t ~pred =
  let module Counter = Mcml_counting.Counter in
  Counter.count ?budget ?cache (Counter.query ~backend (cnf ?negate ?symmetry t ~pred))
