open Mcml_ml

let hr fmt width = Format.fprintf fmt "%s@." (String.make width '-')

let table1 fmt (rows : Experiments.t1_row list) =
  Format.fprintf fmt "Table 1: subject properties and model counts@.";
  hr fmt 112;
  Format.fprintf fmt "%-16s %5s %-8s %12s %14s %14s %14s %14s@." "Property" "Scope"
    "Space" "Valid-SymBr" "Est-SymBr" "Est-NoSymBr" "Exact-SymBr" "Exact-NoSymBr";
  Format.fprintf fmt "%-16s %5s %-8s %12s %14s %14s %14s %14s@." "" "" "" "(Alloy)"
    "(ApproxMC)" "(ApproxMC)" "(ProjMC)" "(ProjMC)";
  hr fmt 112;
  List.iter
    (fun (r : Experiments.t1_row) ->
      Format.fprintf fmt "%-16s %5d 2^%-6d %12s %14s %14s %14s %14s@." r.t1_prop
        r.t1_scope r.t1_state_bits r.t1_alloy r.t1_approx_sym r.t1_approx_nosym
        r.t1_exact_sym r.t1_exact_nosym)
    rows;
  hr fmt 112

let confusion_cells fmt (c : Metrics.confusion) =
  Format.fprintf fmt "%8.4f %9.4f %8.4f %8.4f" (Metrics.accuracy c)
    (Metrics.precision c) (Metrics.recall c) (Metrics.f1 c)

let model_performance fmt ~title (rows : Experiments.perf_row list) =
  Format.fprintf fmt "%s@." title;
  hr fmt 64;
  Format.fprintf fmt "%-7s %-6s %8s %9s %8s %8s@." "Ratio" "Model" "Accuracy"
    "Precision" "Recall" "F1-score";
  hr fmt 64;
  let last_ratio = ref (0, 0) in
  List.iter
    (fun (r : Experiments.perf_row) ->
      let ratio_label =
        if r.p_ratio <> !last_ratio then begin
          last_ratio := r.p_ratio;
          Printf.sprintf "%d:%d" (fst r.p_ratio) (snd r.p_ratio)
        end
        else ""
      in
      Format.fprintf fmt "%-7s %-6s %a@." ratio_label
        (Model.name_of r.p_model)
        confusion_cells r.p_metrics)
    rows;
  hr fmt 64

let dt_generalization fmt ~title (rows : Experiments.dt_row list) =
  Format.fprintf fmt "%s@." title;
  hr fmt 124;
  Format.fprintf fmt "%-16s %5s | %8s %9s %8s %8s | %8s %9s %8s %8s %8s@." "Property"
    "Scope" "Acc/Test" "Prec/Test" "Rec/Test" "F1/Test" "Acc/phi" "Prec/phi" "Rec/phi"
    "F1/phi" "Time[s]";
  hr fmt 124;
  List.iter
    (fun (r : Experiments.dt_row) ->
      Format.fprintf fmt "%-16s %5d | %a | " r.d_prop r.d_scope confusion_cells r.d_test;
      (match r.d_phi with
      | Some counts ->
          let c = Accmc.confusion counts in
          Format.fprintf fmt "%a %8.1f" confusion_cells c counts.Accmc.time
      | None -> Format.fprintf fmt "%8s %9s %8s %8s %8s" "-" "-" "-" "-" "-");
      Format.pp_print_newline fmt ())
    rows;
  hr fmt 124

let tree_differences fmt (rows : Experiments.diff_row list) =
  Format.fprintf fmt
    "Table 8: evaluating differences between decision tree models@.";
  hr fmt 96;
  Format.fprintf fmt "%-16s %5s %10s %10s %10s %10s %8s %8s@." "Subject" "Scope" "TT"
    "TF" "FT" "FF" "Diff[%]" "Time[s]";
  hr fmt 96;
  List.iter
    (fun (r : Experiments.diff_row) ->
      match (r.f_counts, r.f_diff) with
      | Some c, Some d ->
          Format.fprintf fmt "%-16s %5d %10s %10s %10s %10s %8.2f %8.1f@." r.f_prop
            r.f_scope
            (Mcml_logic.Bignat.to_scientific c.Diffmc.tt)
            (Mcml_logic.Bignat.to_scientific c.Diffmc.tf)
            (Mcml_logic.Bignat.to_scientific c.Diffmc.ft)
            (Mcml_logic.Bignat.to_scientific c.Diffmc.ff)
            d c.Diffmc.time
      | _ ->
          Format.fprintf fmt "%-16s %5d %10s %10s %10s %10s %8s %8s@." r.f_prop
            r.f_scope "-" "-" "-" "-" "-" "-")
    rows;
  hr fmt 96

let symmetry_ablation fmt (rows : Experiments.sym_row list) =
  Format.fprintf fmt
    "Ablation: symmetry-breaking strength (solutions kept per scheme;@.";
  Format.fprintf fmt
    "counts are capped at the configured enumeration limit)@.";
  hr fmt 76;
  Format.fprintf fmt "%-16s %5s %10s %10s %10s %9s %9s@." "Property" "Scope" "None"
    "Partial" "Full" "Part.red" "Full.red";
  hr fmt 76;
  List.iter
    (fun (r : Experiments.sym_row) ->
      Format.fprintf fmt "%-16s %5d %10d %10d %10d %8.1fx %8.1fx@." r.s_prop r.s_scope
        r.s_none r.s_partial r.s_full
        (float_of_int r.s_none /. float_of_int (max 1 r.s_partial))
        (float_of_int r.s_none /. float_of_int (max 1 r.s_full)))
    rows;
  hr fmt 76

let class_ratio fmt (rows : Experiments.t9_row list) =
  Format.fprintf fmt
    "Table 9: traditional vs MCML precision across training class ratios@.";
  hr fmt 56;
  Format.fprintf fmt "%-14s %20s %16s@." "Valid:Invalid" "Traditional Prec." "MCML Prec.";
  hr fmt 56;
  List.iter
    (fun (r : Experiments.t9_row) ->
      Format.fprintf fmt "%-14s %20.2f %16.2f@."
        (Printf.sprintf "%d:%d" (fst r.r_ratio) (snd r.r_ratio))
        r.r_traditional r.r_mcml)
    rows;
  hr fmt 56

let table fmt cfg n =
  let perf ~title ~symmetry =
    model_performance fmt ~title
      (Experiments.model_performance cfg ~prop:(Mcml_props.Props.find_exn "PartialOrder")
         ~symmetry)
  in
  let dt ~title ~data_symmetry ~eval_symmetry =
    dt_generalization fmt ~title
      (Experiments.dt_generalization cfg ~data_symmetry ~eval_symmetry)
  in
  match n with
  | 1 -> Ok (table1 fmt (Experiments.table1 cfg))
  | 2 ->
      Ok
        (perf ~symmetry:true
           ~title:"Table 2: classification on the test set, PartialOrder (symmetry-broken data)")
  | 3 ->
      Ok
        (dt ~data_symmetry:true ~eval_symmetry:true
           ~title:
             "Table 3: DT test-set vs entire state space (symmetries broken; phi constrained)")
  | 4 ->
      Ok
        (perf ~symmetry:false
           ~title:"Table 4: classification on the test set, PartialOrder (no symmetry breaking)")
  | 5 ->
      Ok
        (dt ~data_symmetry:false ~eval_symmetry:false
           ~title:"Table 5: DT test-set vs entire state space (no symmetry breaking)")
  | 6 ->
      Ok
        (dt ~data_symmetry:true ~eval_symmetry:false
           ~title:"Table 6: train with symmetries broken, evaluate on the full space")
  | 7 ->
      Ok
        (dt ~data_symmetry:false ~eval_symmetry:true
           ~title:"Table 7: train without symmetry breaking, evaluate on the constrained space")
  | 8 -> Ok (tree_differences fmt (Experiments.tree_differences cfg))
  | 9 ->
      Ok
        (class_ratio fmt
           (Experiments.class_ratio_study cfg ~prop:(Mcml_props.Props.find_exn "Antisymmetric")))
  | n -> Error (Printf.sprintf "no such table: %d (the paper has Tables 1-9)" n)
