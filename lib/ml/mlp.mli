(** Multi-layer perceptron: one ReLU hidden layer, sigmoid output,
    trained with Adam on the logistic loss. *)

open Mcml_logic

type t

type params = {
  hidden : int;
  epochs : int;
  batch : int;
  learning_rate : float;
}

val default_params : params
(** 64 hidden units, 40 epochs, batch 32, α = 5e-3. *)

val train : ?params:params -> rng:Splitmix.t -> Dataset.t -> t
(** Adam over minibatches of [batch] samples, reshuffled each epoch.
    The arithmetic runs in a C kernel, [mlp_stubs.c], whose floats are
    those of the OCaml loops it replaced, bit for bit (DESIGN.md §2).
    @raise Invalid_argument on an empty dataset, a batch below 1, or a
    sample with other than [nfeatures] features. *)

val predict : t -> bool array -> bool
(** Classify: {!probability} thresholded at 0.5. *)

val probability : t -> bool array -> float
(** Sigmoid output of the network, in [0..1]. *)
