#!/usr/bin/env python3
"""The repository benchmark: a real `bpq serve` daemon under seeded workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run builds `bpq` and the helper (`perfbench/harness`) from source with
dune, generates the dataset and request pools once per checkout (cached
under `_perfbench/data`, outside every timed region), draws the run's
request stream from them by the seed, starts `bpq serve` (plus its `bpq worker`s for the
sharded workload), measures set-up, drives the daemon from one
load-generator process over at most `nproc` unix-socket connections, checks
every answer, and prints the metrics.  With `--trace 1` it then replays the
request stream in-process through each layer's public functions and prints
the per-layer metrics instead.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

See perfbench/README.md for the workloads and the metric definitions.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

OPEN_SHARE = 0.4  # share of --seconds in the open-loop phase; the rest is closed-loop
ROUNDS = 5  # open/closed alternations per run; capacity is their median

# Per workload: the request pool its stream is drawn from (hot-template
# cycles over a fixed hot set of the pool and read-write over the whole
# pool, each in a seeded order; the distinct streams consume the pool once), daemon
# flags, query connections (plus the writer, at most 2 = nproc in all), the
# open-loop rate (well below the closed-loop capacity measured on the
# reference machine, see README), and writer settings.
WORKLOADS = {
    "hot-template": {
        "stream": "hot", "cycle": True, "hot_set": 64, "warm_passes": 6, "backend": "mem",
        "flags": [], "query_conns": 2, "rate": 1000.0, "setup_reps": 5,
    },
    "distinct-paged": {
        "stream": "distinct", "cycle": False, "backend": "paged",
        "flags": ["--backend", "paged", "--page-cache", "4"], "query_conns": 2,
        "rate": 70.0, "setup_reps": 15,
    },
    "read-write": {
        "stream": "rw", "cycle": True, "warm_passes": 1, "backend": "mem",
        "flags": [], "query_conns": 1, "rate": 45.0, "setup_reps": 5,
        "write_rate": 10.0, "post_writes": 4, "probe": 16,
    },
    "sharded": {
        "stream": "distinct", "cycle": False, "backend": "sharded",
        "flags": ["--backend", "sharded"], "query_conns": 2, "rate": 30.0, "setup_reps": 15,
    },
}
COMMON_FLAGS = ["--jobs", "2"]
TRACE_REQUESTS = 300  # requests replayed by the traced run (hot sets: 10 cycles)

# Per-layer metrics of the traced run, with their units.
PER_LAYER = {
    "loadgen.lag_p99_ms": "ms",
    "loadgen.cpu_ms_per_query": "ms",
    "loadgen.capacity_qps": "q/s",
    "loadgen.query_p50_ms": "ms",
    "loadgen.query_p99_ms": "ms",
    "loadgen.write_p50_ms": "ms",
    "loadgen.write_p99_ms": "ms",
    "loadgen.compact_ms": "ms",
    "server.handle_p50_us": "us",
    "server.socket_p50_ms": "ms",
    "server.coalesce_followers": "count",
    "jsonx.request_parse_us": "us",
    "jsonx.response_print_us": "us",
    "jsonx.response_bytes": "bytes",
    "pattern_parser.parse_us": "us",
    "qcache.plan_hit_rate": "ratio",
    "qcache.result_hit_rate": "ratio",
    "qcache.fetch_hit_rate": "ratio",
    "qcache.fetch_evictions": "count",
    "qplan.plan_us": "us",
    "exec.run_ms": "ms",
    "exec.accessed_per_query": "count",
    "exec.fetch_lookups_per_query": "count",
    "exec.edge_yield": "ratio",
    "source.lookups_per_query": "count",
    "source.lookup_ms_per_query": "ms",
    "source.probes_per_query": "count",
    "paged.faults_per_query": "count",
    "paged.bytes_read_per_query": "bytes",
    "paged.hit_rate": "ratio",
    "paged.prefetched_per_query": "count",
    "match.ms": "ms",
    "match.gq_size": "count",
    "remote.rounds_per_query": "count",
    "remote.wire_bytes_per_query": "bytes",
    "remote.messages_per_query": "count",
    "remote.worker_ms_per_query": "ms",
    "overlay.merge_ratio": "ratio",
    "overlay.delegated_ratio": "ratio",
    "overlay.masked_per_query": "count",
    "wal.apply_ms": "ms",
    "wal.bytes_per_op": "bytes",
    "store.compact_s": "s",
    "store.compact_bytes": "bytes",
    "trace.self_sum_ms": "ms",
    "trace.self_share": "ratio",
    "trace.overhead_us": "us",
}

ROOT = os.getcwd()
WORK = os.path.join(ROOT, "_perfbench")
BPQ = os.path.join(ROOT, "_build", "default", "bin", "bpq.exe")
HELPER = os.path.join(ROOT, "_build", "default", "perfbench", "harness", "bpqbench.exe")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log("perfbench: " + msg)
    sys.exit(code)


def preflight():
    for p in ("dune-project", "bin/bpq.ml", "lib", "perfbench/harness/dune"):
        if not os.path.exists(os.path.join(ROOT, p)):
            fail("not a bpq checkout (missing %s); run from the repository root" % p)
    if shutil.which("dune") is None:
        fail("dune not found on PATH")


def build():
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/bpq.exe", "./perfbench/harness/bpqbench.exe"],
        cwd=ROOT, capture_output=True, text=True, timeout=850)
    if r.returncode != 0:
        log(r.stdout + r.stderr)
        fail("build failed", 1)


# The sources the generated inputs depend on: the library (snapshot and
# shard formats, the generator, the evaluator behind the expected answers),
# the helper, and the build files.
FINGERPRINT_ROOTS = ("dune-project", "lib", "perfbench/harness")


def fingerprint():
    """SHA-256 over the path and bytes of every file under
    FINGERPRINT_ROOTS, in sorted order."""
    h = hashlib.sha256()
    files = []
    for top in FINGERPRINT_ROOTS:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files.append(top)
        for d, dirs, names in os.walk(path):
            dirs.sort()
            files += [os.path.relpath(os.path.join(d, n), ROOT) for n in sorted(names)]
    for rel in files:
        h.update(rel.encode() + b"\0")
        with open(os.path.join(ROOT, rel), "rb") as f:
            h.update(f.read())
        h.update(b"\0")
    return h.hexdigest()


def data_dir():
    """The dataset, its shards and the request pools: generated outside
    every timed region, and again whenever the fingerprint of the sources
    that made them no longer matches the checkout's."""
    d = os.path.join(WORK, "data")
    fp = fingerprint()
    try:
        if read_json(os.path.join(d, "meta.json")).get("fingerprint") == fp:
            return d
        log("perfbench: the sources changed since the inputs were generated; regenerating")
    except (OSError, ValueError):
        pass
    shutil.rmtree(d, ignore_errors=True)
    tmp = d + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    t = time.time()
    r = subprocess.run([HELPER, "gen", "--dir", tmp, "--bpq", BPQ], capture_output=True,
                       text=True, timeout=600)
    if r.returncode != 0:
        log(r.stderr)
        fail("input generation failed", 1)
    meta = read_json(os.path.join(tmp, "meta.json"))
    meta["fingerprint"] = fp
    with open(os.path.join(tmp, "meta.json"), "w") as f:
        json.dump(meta, f)
    os.rename(tmp, d)
    log("perfbench: generated the dataset and request pools in %.1fs" % (time.time() - t))
    return d


def request_class(line):
    """T0 window, simulation query or subgraph query: the three kinds of
    request, whose costs differ by an order of magnitude."""
    req = json.loads(line)
    if req["pattern"].startswith("n u0 award"):
        return 0
    return 1 if req["semantics"] == "simulation" else 2


def stratified(rng, reqs, n):
    """n request indices in a seeded order whose every prefix holds the
    pool's mix of request classes (to within one request): each class is
    shuffled on its own and the classes are merged in proportion, so the
    seed changes which requests run but not the mix a latency median
    falls in."""
    classes = [[], [], []]
    for i, line in enumerate(reqs):
        classes[request_class(line)].append(i)
    for c in classes:
        rng.shuffle(c)
    share = [len(c) / len(reqs) for c in classes]
    taken = [0, 0, 0]
    order = []
    while len(order) < n:
        k = min((taken[j] - share[j] * len(order), j) for j in range(3)
                if taken[j] < len(classes[j]))[1]
        order.append(classes[k][taken[k]])
        taken[k] += 1
    return order


def draw_stream(cfg, seed, data, rundir):
    """The run's request stream: the workload's hot set (the same for
    every seed, so the seed does not change what a hot request costs) or
    else its whole pool, in a stratified order drawn by the seed; the
    write batches start at a seeded offset.  Returns the .req and .ans
    paths."""
    name = cfg["stream"]
    with open(os.path.join(data, name + ".req")) as f:
        reqs = f.read().splitlines()
    with open(os.path.join(data, name + ".ans")) as f:
        answers = f.read().splitlines()
    if cfg.get("hot_set", len(reqs)) < len(reqs):
        chosen = stratified(random.Random(0), reqs, cfg["hot_set"])
        reqs = [reqs[i] for i in chosen]
        answers = [answers[i] for i in chosen]
    rng = random.Random(seed)
    order = stratified(rng, reqs, len(reqs))
    paths = []
    for ext, lines in ((".req", reqs), (".ans", answers)):
        path = os.path.join(rundir, "stream" + ext)
        with open(path, "w") as f:
            f.write("".join(lines[i] + "\n" for i in order))
        paths.append(path)
    if cfg.get("write_rate"):
        with open(os.path.join(data, name + ".writes")) as f:
            writes = f.read().splitlines()
        k = rng.randrange(len(writes))
        with open(os.path.join(rundir, "stream.writes"), "w") as f:
            f.write("".join(w + "\n" for w in writes[k:] + writes[:k]))
    return paths


def canon(resp):
    """Order-insensitive answer of a parsed reply (see harness/common.ml)."""
    if resp.get("ok") is not True:
        return None
    if "matches" in resp:
        return {"matches": sorted(resp["matches"])}
    if "relation" in resp:
        return {"relation": resp["relation"]}
    return None


class Daemon:
    """One `bpq serve` process (and, when sharded, its spawned workers)."""

    def __init__(self, cfg, graph, rundir, wal):
        cmd = [BPQ, "serve", "-g", graph, "--listen", "unix:d.sock"] + COMMON_FLAGS + cfg["flags"]
        if wal:
            cmd += ["--wal", wal]
        self.cmd = cmd
        self.rundir = rundir
        self.proc = None
        self.children = set()

    def start(self):
        sock = os.path.join(self.rundir, "d.sock")
        if os.path.exists(sock):
            os.unlink(sock)
        self.err = open(os.path.join(self.rundir, "daemon.err"), "ab")
        self.proc = subprocess.Popen(self.cmd, cwd=self.rundir, stdout=subprocess.DEVNULL,
                                     stderr=self.err)

    def connect(self, deadline):
        while True:
            if self.proc.poll() is not None:
                fail("daemon exited during start-up (see %s/daemon.err)" % self.rundir, 1)
            try:
                s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                cwd = os.getcwd()
                os.chdir(self.rundir)
                try:
                    s.connect("d.sock")
                finally:
                    os.chdir(cwd)
                return s
            except OSError:
                s.close()
                if time.perf_counter() > deadline:
                    fail("daemon did not start listening in time", 1)
                time.sleep(0.002)

    def scan_children(self):
        """Record live children (spawned workers) so they can be reaped."""
        me = str(self.proc.pid)
        for pid in os.listdir("/proc"):
            if not pid.isdigit():
                continue
            try:
                with open("/proc/%s/stat" % pid) as f:
                    fields = f.read().rsplit(")", 1)[1].split()
                if fields[1] == me:
                    self.children.add(int(pid))
            except (OSError, IndexError):
                pass

    def rss_mb(self):
        """Peak RSS (VmHWM) of the daemon plus its workers, in MB."""
        self.scan_children()
        total = 0
        for pid in [self.proc.pid] + sorted(self.children):
            try:
                with open("/proc/%d/status" % pid) as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1])
            except OSError:
                pass
        return total / 1024.0

    def stop(self, kill=False):
        if self.proc is None:
            return
        self.scan_children()
        if not kill and self.proc.poll() is None:
            try:
                s = self.connect(time.perf_counter() + 5)
                s.sendall(b'{"op":"shutdown"}\n')
                s.recv(4096)
                s.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                pass
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
            self.proc.wait()
        for pid in self.children:
            deadline = time.time() + 5
            while time.time() < deadline and os.path.exists("/proc/%d" % pid):
                try:
                    with open("/proc/%d/stat" % pid) as f:
                        if f.read().rsplit(")", 1)[1].split()[0] == "Z":
                            break
                except OSError:
                    break
                time.sleep(0.02)
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        self.children = set()
        self.err.close()
        self.proc = None


def settle(graph):
    """Isolate the run from what came before it, outside every timed
    region: flush pending writeback (a previous read-write run's
    compaction and copies) and read the served files once, so neither
    shows up as disk I/O in this run's numbers."""
    os.sync()
    files = ([os.path.join(graph, n) for n in sorted(os.listdir(graph))]
             if os.path.isdir(graph) else [graph])
    for path in files:
        with open(path, "rb") as f:
            while f.read(1 << 22):
                pass


def first_answer(daemon, request, expected):
    """Seconds from spawn to the first correct answer (the set-up time)."""
    t0 = time.perf_counter()
    daemon.start()
    s = daemon.connect(t0 + 150)
    s.sendall(request.encode() + b"\n")
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = s.recv(1 << 20)
        if not chunk:
            fail("daemon closed the connection during start-up", 1)
        buf += chunk
    elapsed = time.perf_counter() - t0
    s.close()
    if canon(json.loads(buf)) != expected:
        return elapsed, False
    return elapsed, True


def run_helper(args, rundir, timeout=170):
    r = subprocess.run([HELPER] + args, cwd=rundir, capture_output=True, text=True,
                       timeout=timeout)
    if r.returncode != 0:
        log(r.stderr)
        fail("helper %s failed" % args[0], 1)
    if r.stderr:
        log(r.stderr.rstrip())


def read_json(path):
    with open(path) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    preflight()
    cfg = WORKLOADS[a.workload]
    build()
    data = data_dir()
    meta = read_json(os.path.join(data, "meta.json"))
    rundir = os.path.join(WORK, "run", a.workload)
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    reqs, answers = draw_stream(cfg, a.seed, data, rundir)
    writes = os.path.join(rundir, "stream.writes")
    with open(os.path.join(data, "setup.req")) as f:
        first_req = f.readline().strip()
    with open(os.path.join(data, "setup.ans")) as f:
        first_ans = json.loads(f.readline())
    wal = None
    if a.workload == "sharded":
        graph = os.path.join(data, "shards")
    elif cfg.get("write_rate"):
        graph = os.path.join(rundir, "graph.snap")
        shutil.copyfile(os.path.join(data, "graph.snap"), graph)
        wal = os.path.join(rundir, "graph.wal")
    else:
        graph = os.path.join(data, "graph.snap")

    settle(graph)
    daemon = Daemon(cfg, graph, rundir, wal)
    setups = []
    wrong = 0
    try:
        for rep in range(cfg["setup_reps"]):
            s, ok = first_answer(daemon, first_req, first_ans)
            setups.append(s)
            wrong += 0 if ok else 1
            if rep < cfg["setup_reps"] - 1:
                daemon.stop()
        spec = {
            "socket": "d.sock", "daemon_pid": daemon.proc.pid, "requests": reqs, "answers": answers,
            "cycle": cfg["cycle"], "query_conns": cfg["query_conns"], "seed": a.seed,
            "warm_passes": cfg.get("warm_passes", 0), "rounds": ROUNDS, "rate": cfg["rate"], "open_s": a.seconds * OPEN_SHARE,
            "closed_s": a.seconds * (1.0 - OPEN_SHARE),
        }
        if cfg.get("write_rate"):
            spec.update({
                "writes": writes,
                "write_rate": cfg["write_rate"], "post_writes": cfg["post_writes"],
                "probe": cfg["probe"], "probe_out": os.path.join(rundir, "probe.resp"),
            })
        with open(os.path.join(rundir, "load.spec"), "w") as f:
            json.dump(spec, f)
        run_helper(["load", "--spec", "load.spec", "--out", "load.json"], rundir)
        load = read_json(os.path.join(rundir, "load.json"))
        rss = daemon.rss_mb()
        durability = None
        if wal:
            daemon.stop(kill=True)
            dspec = {"snapshot": graph, "wal": wal, "requests": reqs,
                     "probe": cfg["probe"], "probe_resp": os.path.join(rundir, "probe.resp"),
                     "expect_ops": load["acked_ops_since_compact"]}
            with open(os.path.join(rundir, "durability.spec"), "w") as f:
                json.dump(dspec, f)
            run_helper(["durability", "--spec", "durability.spec", "--out", "durability.json"],
                       rundir)
            durability = read_json(os.path.join(rundir, "durability.json"))
        else:
            daemon.stop()
    finally:
        daemon.stop(kill=True)
    if a.trace == 1:
        with open(reqs) as f:
            hot_cycles = 10 * sum(1 for _ in f)
        tspec = {"backend": cfg["backend"], "graph": graph, "bpq": BPQ, "page_cache": 4,
                 "requests": reqs, "answers": answers, "cycle": cfg["cycle"],
                 "n": hot_cycles if cfg["cycle"] and not wal else TRACE_REQUESTS,
                 "spans": os.path.join(rundir, "spans.jsonl")}
        if wal:
            tspec["graph"] = os.path.join(rundir, "trace.snap")
            shutil.copyfile(os.path.join(data, "graph.snap"), tspec["graph"])
            tspec.update({"writes": writes,
                          "wal": os.path.join(rundir, "trace.wal"),
                          "write_every": round(cfg["rate"] / cfg["write_rate"])})
        with open(os.path.join(rundir, "trace.spec"), "w") as f:
            json.dump(tspec, f)
        run_helper(["trace", "--spec", "trace.spec", "--out", "trace.json"], rundir)
        trace = read_json(os.path.join(rundir, "trace.json"))

    attempted = load["attempted"] + cfg["setup_reps"]
    failed = load["failed"] + wrong
    wrong += load["wrong"]
    if durability is not None:
        attempted += durability["checked"]
        failed += durability["lost"] + durability["mismatched"]
        wrong += durability["mismatched"]
    # The bounded metrics of BENCHMARK.json, then the ones only reported:
    # CPU time, throughput and latency swing with the host past any
    # allowed bound over ten seeds (see README), and the error rate is 0
    # on every run that passes.
    e2e = {
        "setup_s": (statistics.median(setups), "s"),
        "rss_mb": (rss, "MB"),
    }
    extra = {
        "cpu_ms_per_query": (load["cpu_ms_per_query"], "ms"),
        "capacity_qps": (load["capacity_qps"], "q/s"),
        "query_p50_ms": (load["query_p50_ms"], "ms"),
        "query_p99_ms": (load["query_p99_ms"], "ms"),
        "error_rate": (failed / max(1, attempted), "ratio"),
    }
    if wal:
        extra.update({
            "write_p50_ms": (load["write_p50_ms"], "ms"),
            "write_p99_ms": (load["write_p99_ms"], "ms"),
            "compact_ms": (load["compact_ms"], "ms"),
        })
    print("workload %s seed %d: graph seed %d, scale %g, |G| %d, snapshot %d bytes, "
          "%d open-loop samples, %d closed-loop completions, nproc %d"
          % (a.workload, a.seed, meta["seed"], meta["scale"], meta["graph_size"],
             meta["snapshot_bytes"],
             load["open_samples"], load["closed_completed"], os.cpu_count() or 0))
    if cfg["stream"] == "distinct" and meta["sharded_mismatches"]:
        print("  %d request(s) left out of the distinct pool: the sharded backend answers "
              "them differently from the in-memory evaluation (listed in %s)"
              % (len(meta["sharded_mismatches"]), os.path.join(data, "meta.json")))
    for name, (v, unit) in list(e2e.items()) + list(extra.items()):
        print("  %-17s %14.6g %s" % (name, v, unit))
    metrics = {}
    if a.trace == 0:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    else:
        attempted += trace["checked"]
        failed += trace["wrong"]
        wrong += trace["wrong"]
        layer = dict(trace["metrics"])
        layer["loadgen.lag_p99_ms"] = load["lag_p99_ms"]
        layer["loadgen.cpu_ms_per_query"] = load["cpu_ms_per_query"]
        layer["loadgen.capacity_qps"] = load["capacity_qps"]
        layer["loadgen.query_p50_ms"] = load["query_p50_ms"]
        layer["loadgen.query_p99_ms"] = load["query_p99_ms"]
        for k in ("write_p50_ms", "write_p99_ms", "compact_ms"):
            layer["loadgen." + k] = load[k] if wal else 0.0
        layer["server.socket_p50_ms"] = load["query_p50_ms"] - layer["server.handle_p50_us"] / 1e3
        layer["server.coalesce_followers"] = load["stats"]["coalescing"]["followers"]
        layer["trace.self_share"] = layer["trace.self_sum_ms"] / load["query_p50_ms"]
        print("  traced replay: %d requests (%d executed below the result tier), %d spans"
              % (trace["queries"], trace["executed"], trace["spans"]))
        print("  self time per request by layer (ms, mean):")
        for name, v in sorted(trace["self_ms_per_query"].items(), key=lambda kv: -kv[1]):
            print("    %-22s %10.4f" % (name, v))
        print("  sum of layer self times %.4f ms (p50 per request, decomposed path) beside "
              "query_p50_ms %.4f ms and Server.handle_line p50 %.4f ms"
              % (layer["trace.self_sum_ms"], load["query_p50_ms"],
                 layer["server.handle_p50_us"] / 1e3))
        for name in PER_LAYER:
            print("  %-30s %14.4f %s" % (name, layer[name], PER_LAYER[name]))
        metrics = {k: {"value": layer[k], "unit": u} for k, u in PER_LAYER.items()}
    # Any failed operation fails the run, as a wrong answer does: an
    # error, refusal, timeout, dropped connection or lost durable write.
    correct = wrong == 0 and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    if not correct:
        sys.exit(1)


if __name__ == "__main__":
    main()
