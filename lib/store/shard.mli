(** Hash-partitioning a frozen snapshot into per-shard worker files.

    [partition] splits one {!Bpq_access.Schema.save} snapshot into [N]
    shard snapshots plus a manifest, all written atomically
    ({!Bpq_util.Atomic_file} via {!Bpq_graph.Binfile.write}).  Ownership
    is total and disjoint by construction:

    - every {e index entry} ((constraint, key) bucket) lives on exactly
      the shard {!owner_of_key} names — a mix of the constraint's
      position and the native key record, so both orderings of a 2-node
      key land together;
    - every {e edge} (an out-CSR row entry) lives on the shard
      {!owner_of_node} names for its source node, which is also where
      the node's label and value attributes live.

    Each shard file is a snapshot container that the mem reader
    ({!Bpq_access.Schema.load_sum}, what a {!Remote} worker serves it
    with) and {!Paged.open_} accept, written by the same code as a
    snapshot: {!Bpq_graph.Graph_io.add_graph_sections} under the
    shard's ownership filter (the full label table and node-label array,
    the owned nodes' values and out-rows) and
    {!Bpq_access.Schema.add_section} over each index's
    {!Bpq_access.Index.filter} (every constraint, the owned buckets in
    record order), then the shard-meta section
    ({!Bpq_graph.Binfile.tag_shard_meta}), whose presence is what lets
    the CSR hold out-rows alone.  {!Bpq_graph.Binfile.write}'s checksum
    is the manifest's checksum, so no file is re-read.  A shard file is
    not a snapshot: [Store.open_snapshot] refuses it.

    The manifest ([MANIFEST] in the output directory) records the
    partition-function version, shard count, schema stamp, global sizes,
    the full constraint list, the snapshot's selectivity statistics (if
    it has them) and a per-shard file name + whole-file checksum; {!Remote}
    coordinators plan and route from it alone. *)

open Bpq_graph
open Bpq_access

val partition_version : int
(** Bumped if {!owner_of_key} / {!owner_of_node} ever change; a
    coordinator refuses a manifest whose version it does not speak
    (routing with the wrong function would silently find nothing). *)

type shard_file = {
  file : string;  (** Basename within the manifest's directory. *)
  checksum : int;  (** {!Bpq_graph.Binfile.file_sum} of the shard file. *)
  n_edges : int;  (** Out-edges owned by this shard. *)
  n_keys : int;  (** Index key records owned by this shard. *)
  payload_ints : int;  (** Index payload entries owned by this shard. *)
}

type shard_meta = { shard : int; shards : int; n_edges_global : int }
(** The shard-local identity section every shard file carries; what a
    worker reports in its hello. *)

type manifest = {
  dir : string;
  shards : int;
  stamp : int;  (** Schema-lineage stamp, shared with every shard. *)
  n_nodes : int;
  n_edges : int;  (** Global sizes — [graph_size] is their sum. *)
  table : Label.table;
  constraints : Constr.t list;
  selectivity : Gstats.selectivity option;
      (** The snapshot's statistics, for planning with {!Bpq_core.Costs}
          exactly as the single-node backends do. *)
  files : shard_file array;
}

val owner_of_node : shards:int -> int -> int
(** The shard owning a node's attributes and out-edges. *)

val owner_of_key : shards:int -> cid:int -> int array -> int
(** The shard owning an index bucket; [cid] is the constraint's position
    in the snapshot's constraint list and the array is the {e native}
    key record ({!Bpq_access.Index.export_buckets} form), so placement
    is independent of the caller's key ordering. *)

val manifest_path : string -> string
(** [dir/MANIFEST]; accepts a path that already names the file. *)

val partition : shards:int -> snapshot:string -> dir:string -> manifest
(** Split [snapshot] into [shards] worker files under [dir] (created if
    missing) and write the manifest last, as the commit point.  The
    snapshot stays open until the last shard is written, and its graph
    and index regions are read through that descriptor, in order, not
    through a mapping, so they do not stay resident.
    @raise Invalid_argument on a non-positive shard count.
    @raise Binfile.Corrupt on a damaged input snapshot, or a shard file. *)

val load_manifest : string -> manifest
(** Read and fully verify a manifest (path of the file or of its
    directory).  Shard-file checksums are {e not} reverified here —
    {!verify_files} does that on demand.
    @raise Binfile.Corrupt on damage or an unsupported version. *)

val verify_files : manifest -> unit
(** Recompute every shard file's checksum ({!Bpq_graph.Binfile.file_sum})
    against the manifest.
    @raise Binfile.Corrupt naming the first mismatched or unreadable
    file. *)

val find_shard_meta : Binfile.file -> shard_meta option
(** An open file's identity section, or [None] for a file without one
    (a snapshot).  One read of that section — no checksum pass.
    @raise Binfile.Corrupt on a malformed directory or shard-meta
    section, or a partition/format version that is not this build's. *)

val read_shard_meta : Binfile.file -> shard_meta
(** {!find_shard_meta}, for a file that must be a shard file.
    @raise Binfile.Corrupt if it is not one, as there. *)
