(** A minimal JSON value type with a hand-rolled encoder and parser.

    Just enough JSON for the observability stack: the collector encodes
    telemetry records as JSONL (one value per line), the bench harness
    writes machine-readable results, and the [trace] CLI subcommand reads
    them back. Encoding escapes every control character, quote and
    backslash; parsing accepts the full escape set including [\uXXXX]
    (decoded to UTF-8), so [of_string (to_string v)] round-trips. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** Compact single-line encoding by default (safe for JSONL); [~pretty]
    indents with two spaces. Non-finite floats encode as [null] (JSON has
    no representation for them). *)

exception Parse_error of string

val of_string : string -> t
(** Parse one JSON value; raises {!Parse_error} on malformed input or
    trailing garbage. Numbers without [.], [e] or [E] that fit in an OCaml
    [int] parse as [Int], everything else as [Float]. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** [member key (Obj ...)] is the first binding of [key], if any; [None]
    on non-objects. *)

val to_float_opt : t -> float option
(** [Float], [Int] (widened); [None] otherwise. *)

val to_int_opt : t -> int option
val to_string_opt : t -> string option
val to_list_opt : t -> t list option
