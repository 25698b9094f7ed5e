(** A minimal JSON tree: printer and parser.

    The telemetry layer's only serialization need is "one small object
    per line" (the JSONL trace sink and the benchmark summary), and its
    only parsing need is the round-trip check in the test suite — so
    this is a deliberately tiny implementation rather than a dependency
    on a full JSON library (the container has none installed).

    Numbers are modelled as [Float]/[Int] on the way out and collapse to
    [Float] on the way in when they carry a fraction or exponent.
    Strings are escaped per RFC 8259 (control characters as [\uXXXX]);
    the parser accepts any JSON text produced by {!to_string}. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering.  Non-finite floats render as
    [null] — JSON has no NaN/infinity. *)

val to_buffer : Buffer.t -> t -> unit

val max_depth : int
(** The deepest nesting of arrays and objects {!of_string} accepts
    (64). *)

val of_string : string -> (t, string) result
(** Parse a complete JSON text (leading/trailing whitespace allowed).
    Returns [Error msg] with a position on malformed input, and on
    nesting deeper than {!max_depth} (the message names the limit). *)

val member : string -> t -> t option
(** [member k j] is the value of field [k] if [j] is an object. *)

val to_float_opt : t -> float option
(** Numeric value of [Int]/[Float], [None] otherwise. *)
