(** Minimal JSON values: construction, strict printing, parsing.

    Both sides of the serve protocol ({!Bpq_core.Server}) and the bench
    harness's [--json] artefacts use this representation.  {!to_string}
    emits strict JSON — strings escaped, numbers finite; a non-finite
    float prints as [null], so undefined statistics (e.g. the percentile
    of an empty latency sample) can never produce the invalid tokens
    [nan] or [inf] in an artefact. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** One-line strict JSON. *)

val parse : string -> (t, string) result
(** Strict parse of a complete JSON document; trailing non-whitespace is
    an error.  Numbers without [.]/[e] parse as [Int] (falling back to
    [Float] beyond [int] range); [\uXXXX] escapes decode to UTF-8,
    including surrogate pairs. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** Object field by key; [None] on missing keys and non-objects. *)

val to_string_opt : t -> string option
val to_int_opt : t -> int option
(** [Int], or an integral [Float]. *)

val to_float_opt : t -> float option
(** [Float] or [Int]. *)

val to_list_opt : t -> t list option

val of_float_opt : float option -> t
(** [Float f] when defined, [Null] otherwise — the encoding for possibly
    undefined statistics. *)
