(** BNN → propositional logic: the extension the paper's §2 describes
    (via Narodytska et al.'s SAT encodings of binarized networks),
    which lets the MCML metrics quantify a binarized neural network —
    not just a decision tree — against the entire input space.

    A ±1-weighted sign neuron over boolean inputs is a threshold
    function "at least [t] of these literals are true"; we build that
    threshold directly as a hash-consed formula with the classic
    [ge(i, j) = ge(i-1, j) ∨ (l_i ∧ ge(i-1, j-1))] recurrence (the DAG
    is shared across neurons), compose the output neuron on top, and
    Tseitin-translate.  All auxiliaries are bi-implicationally defined,
    so projected model counts over the inputs are preserved — the same
    property Tree2CNF has by construction. *)

open Mcml_logic
open Mcml_ml

val threshold : Formula.t list -> int -> Formula.t
(** [threshold lits t] is the formula "at least [t] of [lits] are
    true" ([tru] when [t <= 0], [fls] when [t > length lits]). *)

val formula_of : Bnn.t -> Formula.t
(** Formula over input variables [1..num_inputs] that holds exactly on
    the inputs the BNN classifies as [true]. *)

val cnf_of_label : nfeatures:int -> Bnn.t -> label:bool -> Cnf.t
(** CNF (projection = the [nfeatures] inputs) of the [label] side;
    Tseitin auxiliaries sit above [nfeatures]. *)

val accmc :
  ?budget:float ->
  backend:Mcml_counting.Counter.backend ->
  phi:Cnf.t ->
  not_phi:Cnf.t ->
  space:Cnf.t ->
  nprimary:int ->
  Bnn.t ->
  Accmc.counts option
(** Whole-space confusion counts of a BNN against ground truth — the
    decision-tree {!Accmc} generalized as the paper promises. *)
