(** Human-readable plan reports: EXPLAIN and EXPLAIN-ANALYZE for bounded
    query plans.

    {!describe} renders the static plan — the fetch operations, the edge
    directives, the covering constraints and the worst-case arithmetic (the
    form of the paper's Example 1 walkthrough).  {!analyze_with}
    additionally executes the plan against an {!Exec.source} and reports,
    per operation, the realised cardinality next to its static bound,
    together with the total data accessed relative to [|G|].

    With [costs] (a {!Costs} model), both add an "estimated" column — the
    cost model's predicted realized cardinality per operation — so
    misestimates are visible next to what actually happened. *)

val describe : ?costs:Costs.t -> Plan.t -> string
(** Static report; never touches a graph. *)

type analysis = {
  report : string;  (** The rendered EXPLAIN-ANALYZE table. *)
  result : Exec.result;  (** The execution behind it, for further use. *)
}

val analyze_with : ?costs:Costs.t -> Exec.source -> Plan.t -> analysis
(** Executes the plan against the source and renders estimate-vs-realised
    per operation; the accessed fraction uses the source's [graph_size].  The
    realised numbers are always within the static estimates (a property
    the test suite pins down); the cost model's estimates carry no such
    guarantee — that is the point of printing them. *)
