(** Interned node labels.

    The paper's alphabet Σ of labels (e.g. [movie], [actress], [year]) is
    represented by small integers interned in a {!table}.  A data graph, the
    patterns queried against it and the access schema that constrains it must
    all share one table so that label identifiers line up. *)

type t = int
(** A label identifier.  Valid only together with the table that interned
    it. *)

type table

val create_table : unit -> table

val intern : table -> string -> t
(** [intern tbl name] returns the identifier for [name], allocating a fresh
    one on first sight. *)

val copy : table -> table
(** A table with the same labels under the same identifiers, interning
    into which leaves the original as it is. *)

val find : table -> string -> t option
(** Lookup without allocating. *)

val name : table -> t -> string
(** @raise Invalid_argument if [t] was not allocated by this table. *)

val count : table -> int
(** Number of labels interned so far; identifiers are [0 .. count - 1]. *)

val all : table -> t list
(** All interned labels in allocation order. *)
