(** Paper-style rendering of the experiment rows. *)

val table1 : Format.formatter -> Experiments.t1_row list -> unit
(** Render Table 1 (solution counts per property). *)

val model_performance : Format.formatter -> title:string -> Experiments.perf_row list -> unit
(** Render Tables 2/4 (six models x split ratios) under [title]. *)

val dt_generalization : Format.formatter -> title:string -> Experiments.dt_row list -> unit
(** Render Tables 3/5/6/7 (test set vs entire space) under [title]. *)

val tree_differences : Format.formatter -> Experiments.diff_row list -> unit
(** Render Table 8 (DiffMC between tree pairs). *)

val class_ratio : Format.formatter -> Experiments.t9_row list -> unit
(** Render Table 9 (class-ratio study). *)

val symmetry_ablation : Format.formatter -> Experiments.sym_row list -> unit
(** Render the symmetry-breaking ablation. *)

val table : Format.formatter -> Experiments.config -> int -> (unit, string) result
(** Run the driver of the paper's Table [n] under the config and render
    its rows; [Error] for any [n] outside 1–9, before any work. *)
