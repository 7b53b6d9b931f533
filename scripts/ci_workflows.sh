#!/usr/bin/env bash
# End-to-end CLI workflows, as CI runs them: freeze a snapshot and serve
# it mem and paged, partition it and serve it through spawned and
# external workers, write through a delta log and compact it, and check
# that damaged or wrong inputs fail with a one-line `bpq:` diagnostic
# rather than a backtrace.
#
#   scripts/ci_workflows.sh [DIR]
#
# Builds bin/bpq.exe with dune, then works in DIR (default: a fresh
# temporary directory), leaving there what later steps reuse: g.snap,
# q.txt, w.snap (the compacted write-workflow generation) and shards2
# (an undamaged two-shard split).  Run it from the repository root.
set -euo pipefail

dune build bin/bpq.exe
B="$PWD/_build/default/bin/bpq.exe"
D="${1:-$(mktemp -d)}"
mkdir -p "$D"
cd "$D"

# Fails unless the command exits non-zero with a `bpq:` line (matching
# the optional pattern) and no uncaught exception on stderr.
refused() {
  local pattern="$1"; shift
  if "$@" 2> err.out; then echo "expected failure: $*" >&2; exit 1; fi
  grep -q "^bpq: $pattern" err.out
  if grep -q 'uncaught exception' err.out; then cat err.out >&2; exit 1; fi
}

echo "== snapshot workflow (freeze a graph, serve it mem and paged, identical output)"
"$B" gen --kind imdb --scale 0.02 -o g.txt
"$B" discover -g g.txt > a.txt
"$B" freeze -g g.txt -a a.txt -o g.snap
printf 'n m movie\nn y year\nn c certificate\ne m y\ne m c\n' > q.txt
"$B" run -g g.txt -a a.txt -q q.txt > text.out
"$B" run -g g.snap -q q.txt > mem.out
"$B" run -g g.snap -q q.txt --backend paged --page-cache 1 > paged.out
diff text.out mem.out && diff mem.out paged.out
# damaged snapshots must fail with a diagnostic, not a backtrace
head -c 50000 g.snap > trunc.snap
refused '' "$B" run -g trunc.snap -q q.txt
# the paged reader skips the checksum: node labels out of range (every
# i64 of the nodes section's label array, section tag 2) must still fail
# with a diagnostic
python3 - g.snap badlabel.snap <<'PY'
import struct, sys
d = bytearray(open(sys.argv[1], 'rb').read())
for i in range(struct.unpack_from('<q', d, 16)[0]):
    tag, off, _ = struct.unpack_from('<qqq', d, 24 + 24 * i)
    if tag == 2:
        for v in range(struct.unpack_from('<q', d, off)[0]):
            struct.pack_into('<q', d, off + 8 + 8 * v, 1000000)
open(sys.argv[2], 'wb').write(d)
PY
refused '' "$B" run -g badlabel.snap -q q.txt --backend paged
# --limit keeps the first matches the search finds, alone or in a batch
"$B" run -g g.snap -q q.txt --limit 3 | grep '^u' > single.out
"$B" run -g g.snap -q q.txt -q q.txt --limit 3 | awk '/^== /{n++} n==1 && /^u/' > batch.out
test -s single.out && diff single.out batch.out
# a shard file is not a snapshot: both single-node backends refuse it
"$B" shard --shards 2 g.snap shardfile
for be in paged mem; do
  refused '' "$B" run -g shardfile/shard-0000.snap -q q.txt --backend $be
done
# and a snapshot is not a shard file: a worker refuses it
refused '' "$B" worker g.snap < /dev/null
# the mem open runs its tasks on the --jobs pool: the same matches on one slot or two
"$B" run -g g.snap -q q.txt --jobs 1 > jobs1.out
"$B" run -g g.snap -q q.txt --jobs 2 > jobs2.out
test -s jobs1.out && diff jobs1.out jobs2.out
# a format version 1 snapshot is refused with a diagnostic naming the version
cp g.snap v1.snap
printf '\001' | dd of=v1.snap bs=1 seek=8 count=1 conv=notrunc 2>/dev/null
refused '.*version 1' "$B" run -g v1.snap -q q.txt

echo "== sharded workflow (partition a snapshot, spawned and external workers, identical output)"
rm -rf shards3 shards2
"$B" shard --shards 3 g.snap shards3
"$B" run -g g.snap -q q.txt > mem.out
# spawned workers: the coordinator forks one `bpq worker` per shard
"$B" run -g shards3 --backend sharded -q q.txt > sharded.out
diff mem.out sharded.out
# batched-fetch fallback must answer identically too
"$B" run -g shards3 --backend sharded --no-pushdown -q q.txt > batched.out
diff mem.out batched.out
# external workers: long-lived `bpq worker --listen` processes
"$B" shard --shards 2 g.snap shards2
rm -f w0.sock w1.sock
"$B" worker --listen "unix:$D/w0.sock" shards2/shard-0000.snap &
"$B" worker --listen "unix:$D/w1.sock" shards2/shard-0001.snap &
for i in $(seq 100); do [ -S w0.sock ] && [ -S w1.sock ] && break; sleep 0.1; done
"$B" run -g shards2 --backend sharded \
  --workers "unix:$D/w0.sock,unix:$D/w1.sock" -q q.txt > workers.out
diff mem.out workers.out
wait
# a damaged shard file must fail with a diagnostic, not a backtrace
dd if=/dev/zero of=shards3/shard-0001.snap bs=1 count=8 seek=100 conv=notrunc 2>/dev/null
refused '' "$B" run -g shards3 --backend sharded -q q.txt

echo "== write workflow (delta log; overlay reads byte-identical across backends and compaction)"
cp g.snap w.snap
rm -f w.wal w2.wal ws.wal
cat > ops.jsonl <<'OPS'
{"op":"add_node","label":"movie","value":"ci-movie"}
{"op":"add_edge","src":0,"dst":1}
{"op":"set_value","node":0,"value":42}
{"op":"remove_edge","src":2,"dst":3}
OPS
"$B" apply -g w.snap --wal w.wal ops.jsonl
# the overlay serves identically through the mem and paged backends
"$B" run -g w.snap --wal w.wal -q q.txt > overlay_mem.out
"$B" run -g w.snap --wal w.wal --backend paged --page-cache 1 -q q.txt > overlay_paged.out
diff overlay_mem.out overlay_paged.out
# compaction folds the log in place; the new generation answers identically
"$B" compact -g w.snap --wal w.wal
"$B" run -g w.snap -q q.txt > folded.out
diff overlay_mem.out folded.out
# the truncated log pairs with the new generation: writes keep flowing
"$B" apply -g w.snap --wal w.wal ops.jsonl
"$B" run -g w.snap --wal w.wal -q q.txt > /dev/null
# a log from another snapshot generation is refused with a typed error
refused '' "$B" run -g g.snap --wal w.wal -q q.txt

echo "== sharded write smoke (writes flow through the coordinator; compaction refused typed)"
rm -rf wshards
"$B" shard --shards 2 w.snap wshards
"$B" apply -g wshards --backend sharded --wal ws.wal ops.jsonl
"$B" run -g wshards --backend sharded --wal ws.wal -q q.txt > shard_overlay.out
# the same ops over the unsharded snapshot answer identically
"$B" apply -g w.snap --wal w2.wal ops.jsonl
"$B" run -g w.snap --wal w2.wal -q q.txt > mem_overlay.out
diff shard_overlay.out mem_overlay.out
# compacting through the coordinator is refused with a one-line typed error
refused '' "$B" compact -g wshards --wal ws.wal

echo "ci_workflows: all workflows passed in $D"
