(** One counter registry, three renderings.

    Each layer describes its counters once, as a list of {!sample}s —
    the server its request and admission counters, the cache its tiers,
    the store its page, overlay, delta-log and per-shard traffic — and
    the [stats] JSON, the Prometheus [/metrics] page and the CLI
    diagnostics tables are all rendered from the same list.  A counter
    added to a layer therefore shows up in every rendering at once, and
    the renderings cannot drift apart.

    A sample's JSON path is dotted ([cache.plan_hits]); an all-digit
    segment indexes an array ([shards.messages.1] is element 1 of
    [shards.messages]).  Prometheus samples sharing a family name are
    grouped under one [# HELP]/[# TYPE] header, in first-appearance
    order. *)

type value = Int of int | Float of float

type kind =
  | Counter of int  (** Monotone; the family name should end in [_total]. *)
  | Gauge of value
  | Summary of Histogram.snapshot
      (** A latency distribution in seconds.  JSON: an object with
          [count], [mean_ms], [p<q>_ms] per quantile and [max_ms];
          Prometheus: a [summary] family with [quantile] samples, [_sum]
          and [_count]. *)

type sample = {
  path : string;  (** Dotted key path in the JSON rendering. *)
  name : string;  (** Prometheus family name. *)
  labels : (string * string) list;
  help : string;
  kind : kind;
}

val counter : ?labels:(string * string) list -> string -> string -> string -> int -> sample
(** [counter path name help v]. *)

val gauge : ?labels:(string * string) list -> string -> string -> string -> value -> sample

val summary : string -> string -> string -> Histogram.snapshot -> sample

val per_item :
  label:string -> string -> string -> string -> int array -> sample list
(** [per_item ~label path name help values]: one counter per element
    [i], at path [path.i] with label [label="i"] — per-shard arrays. *)

val to_json : sample list -> (string * Jsonx.t) list
(** The fields of the nested JSON object. *)

val to_prometheus : sample list -> string
(** A text-exposition page, format 0.0.4. *)

val to_table : sample list -> Table.t
(** One row per JSON leaf: path, value and help text. *)
