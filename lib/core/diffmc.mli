(** DiffMC: quantifying the semantic difference between two trained
    decision trees over the entire input space, without ground truth
    or datasets (paper §4, equations 5–11).

    [tt/tf/ft/ff] count the inputs on which the two trees predict
    (true,true), (true,false), (false,true), (false,false);
    [diff = (tf + ft) / 2^n] and [sim = 1 − diff]. *)

open Mcml_logic
open Mcml_ml
open Mcml_counting

type counts = {
  tt : Bignat.t;
  tf : Bignat.t;
  ft : Bignat.t;
  ff : Bignat.t;
  time : float;
}

val counts :
  ?budget:float ->
  ?pool:Mcml_exec.Pool.t ->
  ?cache:Counter.cache ->
  backend:Counter.backend ->
  nprimary:int ->
  Decision_tree.t ->
  Decision_tree.t ->
  counts option
(** With the exact backend the four counts need no counter: each is a
    sum over the consistent path pairs with its labels of
    [2^(n − |vars(p1) ∪ vars(p2)|)], so [budget], [pool] and [cache]
    go unused.  The approximate and brute backends count the four
    Tree2CNF conjunctions; with [pool] they run as one parallel batch
    (identical results, different schedule), without it sequentially,
    stopping at the first timeout.  [cache] memoizes their outcomes
    ({!Counter.cache}). *)

val diff : counts -> nprimary:int -> float
(** Fraction of the [2^nprimary] input space on which the two trees
    disagree ([(tf + ft) / 2^n]). *)

val sim : counts -> nprimary:int -> float
(** [1 - diff]: the fraction on which the trees agree. *)

val check_total : counts -> nprimary:int -> bool
(** The four counts partition the [2^n] input space (exact backends). *)
