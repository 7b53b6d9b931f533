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

    Each shard file is a valid snapshot container that {!Paged.open_}
    accepts unchanged: full label table, full node-label array, the
    owned nodes' values, the owned out-rows, and the schema section with
    the full constraint list but only the owned buckets (record order is
    preserved by filtering, so the on-disk binary search still works).
    The labels and schema sections are written by the same code as a
    snapshot's ({!Bpq_graph.Graph_io.add_labels_section},
    {!Bpq_access.Schema.add_section} over each index's
    {!Bpq_access.Index.filter}), and {!Bpq_graph.Binfile.write}'s FNV is the
    manifest's checksum, so no file is re-read.
    Shard files carry only the sections a worker serves — they are not
    loadable by the in-memory backend, which validates the full CSR.

    The manifest ([MANIFEST] in the output directory) records the
    partition-function version, shard count, schema stamp, global sizes,
    the full constraint list, the snapshot's selectivity statistics (if
    it has them) and a per-shard file name + FNV-1a checksum; {!Remote}
    coordinators plan and route from it alone. *)

open Bpq_graph
open Bpq_access

val format_version : int
val partition_version : int
(** Bumped if {!owner_of_key} / {!owner_of_node} ever change; a
    coordinator refuses a manifest whose version it does not speak
    (routing with the wrong function would silently find nothing). *)

type shard_file = {
  file : string;  (** Basename within the manifest's directory. *)
  checksum : int;  (** FNV-1a over the shard file's bytes. *)
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

val shard_file_name : int -> string
(** ["shard-%04d.snap"]. *)

val manifest_path : string -> string
(** [dir/MANIFEST]; accepts a path that already names the file. *)

val partition : shards:int -> snapshot:string -> dir:string -> manifest
(** Split [snapshot] into [shards] worker files under [dir] (created if
    missing) and write the manifest last, as the commit point.
    @raise Invalid_argument on a non-positive shard count.
    @raise Binfile.Corrupt on a damaged input snapshot. *)

val load_manifest : string -> manifest
(** Read and fully verify a manifest (path of the file or of its
    directory).  Shard-file checksums are {e not} reverified here —
    {!verify_files} does that on demand.
    @raise Binfile.Corrupt on damage or an unsupported version. *)

val verify_files : manifest -> unit
(** Recompute every shard file's checksum ({!Bpq_graph.Binfile.file_fnv})
    against the manifest.
    @raise Binfile.Corrupt naming the first mismatched or unreadable
    file. *)

val read_shard_meta : string -> shard_meta
(** Read one shard file's identity section (directory walk only — no
    checksum pass).
    @raise Binfile.Corrupt if the file is not a shard file or its
    partition/format version is not this build's. *)
