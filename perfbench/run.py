"""Black-box benchmark of the serve path (``repro-preview serve``).

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload music-explore --seed 1 --seconds 10 --trace 0

``--workload all`` runs the three workloads in turn.  Each run starts
the server as a subprocess (``python3 -m repro.cli serve``) and drives
it from this one client process over at most two connections:

``music-explore``
    ``serve --store music.rgs --jobs 1``; a closed loop over every
    (k, d, mode) group of :data:`ops.EXPLORE_GROUPS` per server
    lifetime, so every request is cold: store open, clique enumeration,
    lowering, kernel, profiles and DP do the work.  (With ``--jobs 2``
    the planner's timing-driven shard verdicts swung from 23 to 171 per
    run across seeds on a 2-CPU host, and the read median with them by
    more than any bound a regression gate could use.)
``film-hot-reads``
    ``serve --datasets film``; open-loop Poisson reads, Zipf-hot over a
    warm 16-query hot set, with a never-repeated tail: the fast path,
    worker-thread hop, coalescing and serialization do the work.
``music-writes``
    ``serve --datasets music``; a writer sending mutation bursts and
    reading its own writes, plus a reader over the same hot set: type
    scoped eviction, context and pool patching and profile rebuilds.

Every run launches the server :data:`LAUNCHES` times (``setup_s`` and
``first_preview_s`` are medians over the launches), checks every
payload against a serial in-process oracle after the load (untimed),
and prints one JSON object as its last line.  ``--trace 1`` runs the
load twice, untraced and then through ``launcher.py``, which records a
span around each layer; it reports the per-layer metrics, the traced
run's overhead and the share of client-observed time the spans cover.
Working files go to ``.perfbench-work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import ops
from client import (BenchError, Connection, Sample, Server, closed_loops, open_loop,
                    server_env)

_clock = time.perf_counter

#: Server launches per run: the medians of set-up metrics need several.
#: Film starts in well under a second, so it affords more.
LAUNCHES = {"music-explore": 3, "film-hot-reads": 5, "music-writes": 3}
#: A run stops starting music-explore passes after this many seconds.
EXPLORE_DEADLINE = 75.0
#: Minimum share of client-observed time the traced spans must cover.
MIN_COVERAGE = 0.95
WORKLOADS = ("music-explore", "film-hot-reads", "music-writes")
WORK_DIR = ".perfbench-work"

#: The end-to-end metrics of the result line (BENCHMARK.json's
#: ``end_to_end``).  The other figures are printed, not gated: over ten
#: seeds on a 2-CPU virtual machine, where even ``setup_s`` (a fixed
#: job) spread by 0.10-0.18, the film hot-read p90 spread by 0.41 and
#: the music-writes p90 and fresh-read figures by 0.24-0.31, beyond the
#: largest bound a gate may use.
GATED = ("setup_s", "first_preview_s", "peak_rss_mb", "ops_per_s", "read_ms.p50")


@dataclass
class Launch:
    setup_s: float
    first_preview_s: float
    peak_rss_mb: float = 0.0
    trace: Optional[dict] = None
    stats: Optional[dict] = None
    load: bool = False


@dataclass
class Load:
    """Everything one (untraced or traced) execution of a workload saw."""

    launches: List[Launch] = field(default_factory=list)
    #: Timed requests, in send order.
    samples: List[Sample] = field(default_factory=list)
    #: Untimed requests (probes, warm-up, closing stats): checked too.
    untimed: List[Sample] = field(default_factory=list)
    #: Requests per server lifetime, for the oracle.
    histories: List[List[Sample]] = field(default_factory=list)
    #: Seconds the timed requests took (summed over server lifetimes).
    load_s: float = 0.0
    late_ms: List[float] = field(default_factory=list)
    #: Share of CPU time the hypervisor took from this host during loads.
    steal: List[float] = field(default_factory=list)


def cpu_times() -> Tuple[int, int]:
    """(steal, total) jiffies of the host so far, from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        fields = [int(value) for value in handle.readline().split()[1:]]
    return fields[7], sum(fields)


def percentile(values: List[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Bench:
    def __init__(self, root: Path, seed: int, seconds: float) -> None:
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.work = root / WORK_DIR
        self.work.mkdir(exist_ok=True)
        self.env = server_env(root)
        self.ids = itertools.count(1)
        self._launch_no = itertools.count()

    # -- program ---------------------------------------------------------
    def music_store(self) -> Path:
        """``music.rgs`` built by ``dataset build``, cached per source tree."""
        digest = hashlib.sha256()
        for path in sorted((self.root / "src" / "repro").rglob("*.py")):
            digest.update(str(path.relative_to(self.root)).encode())
            digest.update(path.read_bytes())
        store = self.work / f"music-{digest.hexdigest()[:16]}.rgs"
        if not store.exists():
            tmp = self.work / "music-build.rgs"
            subprocess.run(
                [sys.executable, "-m", "repro.cli", "dataset", "build", "--domain", "music",
                 "--scale", str(ops.DATASET_SCALE), "--seed", str(ops.DATASET_SEED),
                 "--out", str(tmp)],
                cwd=self.root, env=self.env, check=True, stdout=subprocess.DEVNULL,
                timeout=600,
            )
            os.replace(tmp, store)
        return store

    def launch(self, serve_args: List[str], traced: bool) -> Server:
        number = next(self._launch_no)
        args = ["serve", *serve_args, "--port", "0",
                "--scale", str(ops.DATASET_SCALE), "--seed", str(ops.DATASET_SEED)]
        if traced:
            out = self.work / f"trace-{number}.json"
            if out.exists():
                out.unlink()
            argv = [sys.executable, str(Path(__file__).with_name("launcher.py")),
                    "--trace-out", str(out), *args]
        else:
            argv = [sys.executable, "-m", "repro.cli", *args]
        return Server(argv, self.env, self.root, self.work / f"server-{number}.log").start()

    def _trace_of(self, server: Server) -> Optional[dict]:
        if "--trace-out" not in server.argv:
            return None
        out = Path(server.argv[server.argv.index("--trace-out") + 1])
        return json.loads(out.read_text())

    def lifetime(self, load: Load, serve_args, traced: bool, body=None) -> None:
        """One server lifetime: launch, probe, ``body(conn)``, stats, stop."""
        history: List[Sample] = []
        server = self.launch(serve_args, traced)
        conns: List[Connection] = []
        try:
            conns.append(Connection(server.port, self.ids))
            probe = conns[0].request(ops.PROBE)
            launch = Launch(server.setup_s, probe.t_done - server.launched)
            history.append(probe)
            if body is not None:
                conns.append(Connection(server.port, self.ids))
                steal, total = cpu_times()
                body(conns, history)
                steal_after, total_after = cpu_times()
                load.steal.append((steal_after - steal) / max(total_after - total, 1))
                launch.load = True
            closing = conns[0].request(ops.Op("stats", {}, "stats"))
            history.append(closing)
            launch.stats = closing.response.get("result")
            launch.peak_rss_mb = server.peak_rss_mb()
        finally:
            for conn in conns:
                conn.close()
            server.stop()
        launch.trace = self._trace_of(server)
        load.launches.append(launch)
        load.histories.append(history)
        timed = {sample.id for sample in load.samples}
        load.untimed.extend(s for s in history if s.id not in timed)

    # -- workloads -------------------------------------------------------
    def music_explore(self, traced: bool) -> Load:
        store = self.music_store()
        load = Load()
        rng = random.Random(self.seed)
        started = _clock()

        def body(conns, history):
            samples = []
            start = _clock()
            for op in ops.explore_pass(rng):
                samples.append(conns[0].request(op))
            load.load_s += _clock() - start
            load.samples.extend(samples)
            history.extend(samples)

        while len(load.launches) < LAUNCHES["music-explore"] or (
            load.load_s < self.seconds
            and _clock() - started < EXPLORE_DEADLINE
        ):
            self.lifetime(load, ["--store", str(store), "--jobs", "1"], traced, body)
        return load

    def film_hot_reads(self, traced: bool) -> Load:
        load = Load()
        schedule = ops.film_schedule(self.seed, self.seconds)

        def body(conns, history):
            for op in ops.FILM_HOT:  # warm the hot set, untimed
                history.append(conns[0].request(op))
            samples = [Sample(op, next(self.ids)) for op in schedule]
            begin = _clock() + 0.01
            for sample in samples:
                sample.t_due = begin + sample.op.due
            open_loop(conns, samples)
            load.load_s += max(s.t_done for s in samples) - begin
            load.late_ms.extend((s.t_start - s.t_due) * 1e3 for s in samples)
            load.samples.extend(samples)
            history.extend(samples)

        launches = LAUNCHES["film-hot-reads"]
        for number in range(launches):
            last = number == launches - 1
            self.lifetime(load, ["--datasets", "film"], traced, body if last else None)
        return load

    def music_writes(self, traced: bool) -> Load:
        load = Load()

        def body(conns, history):
            for op in ops.WRITE_HOT:  # warm the hot set, untimed
                history.append(conns[0].request(op))
            writes = itertools.chain.from_iterable(
                burst + [read] for burst, read in ops.writer_stream(self.seed))
            start = _clock()
            samples = closed_loops(conns, [writes, ops.reader_stream(self.seed)], self.ids,
                                   start + self.seconds)
            load.load_s += _clock() - start
            token = 0  # the generation the writer's latest burst reached
            for sample in samples:
                if sample.op.op == "mutate" and sample.ok:
                    token = sample.response["result"]["generation"]
                elif sample.op.conn == 0:
                    sample.token = token
            load.samples.extend(samples)
            history.extend(samples)

        launches = LAUNCHES["music-writes"]
        for number in range(launches):
            last = number == launches - 1
            self.lifetime(load, ["--datasets", "music"], traced, body if last else None)
        return load

    def execute(self, workload: str, traced: bool) -> Load:
        gc.collect()
        gc.disable()  # the client's collector must not stall the timed loop
        try:
            return getattr(self, workload.replace("-", "_"))(traced)
        finally:
            gc.enable()

    # -- correctness -----------------------------------------------------
    def oracle_graph(self, workload: str):
        if workload == "music-explore":
            from repro.store import open_store

            with open_store(self.music_store()) as store_file:
                return store_file.entity_graph()
        from repro.datasets.freebase_like import generate_domain

        name = "film" if workload.startswith("film") else "music"
        return generate_domain(name, scale=ops.DATASET_SCALE, seed=ops.DATASET_SEED)

    def check(self, workload: str, loads: List[Load]) -> List[str]:
        """Oracle mismatches, error responses and read-your-write misses."""
        from oracle import Oracle, check

        problems: List[str] = []
        shared = None  # read-only histories share one oracle
        for load in loads:
            for history in load.histories:
                writes = any(s.op.op == "mutate" for s in history)
                if writes:
                    oracle = Oracle(self.oracle_graph(workload))
                    if workload == "music-writes":
                        problems.extend(missing_links(oracle))
                else:
                    if shared is None:
                        shared = Oracle(self.oracle_graph(workload))
                    oracle = shared
                problems.extend(check(oracle, history))
                for sample in history:
                    token = sample.token
                    if token and sample.ok and sample.response["result"]["generation"] < token:
                        problems.append(f"request {sample.id}: read own write {token} "
                                        f"at generation {sample.response['result']['generation']}")
        return problems


def missing_links(oracle) -> List[str]:
    from repro.model.ids import RelationshipTypeId

    known = set(oracle.graph.entity_graph.relationship_types())
    return [
        f"music has no relationship type {link}"
        for link in ops.HOT_LINKS
        if RelationshipTypeId(name=link[0], source_type=link[1], target_type=link[2]) not in known
    ]


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _reads(samples: List[Sample], tags) -> List[float]:
    return [s.latency_ms for s in samples
            if s.op.op in ("preview", "sweep") and s.op.tag in tags]


def end_to_end(load: Load) -> Dict[str, tuple]:
    """name -> (value, unit, samples)."""
    setups = [launch.setup_s for launch in load.launches]
    firsts = [launch.first_preview_s for launch in load.launches]
    rss = [launch.peak_rss_mb for launch in load.launches if launch.load]
    fresh = _reads(load.samples, ("fresh",))
    # music-explore has no reads but fresh ones, so there every read
    # counts in both figures.
    reads = _reads(load.samples, ("read",)) or fresh
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "first_preview_s": (statistics.median(firsts), "s", len(firsts)),
        "peak_rss_mb": (statistics.median(rss), "MB", len(rss)),
        "ops_per_s": (len(load.samples) / load.load_s, "ops/s", len(load.samples)),
        "read_ms.p50": (percentile(reads, 50), "ms", len(reads)),
        "read_ms.p90": (percentile(reads, 90), "ms", len(reads)),
        "fresh_read_ms.p50": (percentile(fresh, 50), "ms", len(fresh)),
        "fresh_read_ms.p90": (percentile(fresh, 90), "ms", len(fresh)),
    }
    mutations = [s.latency_ms for s in load.samples if s.op.op == "mutate"]
    if mutations:  # printed, not gated: only music-writes mutates
        metrics["mutate_ms.p50"] = (percentile(mutations, 50), "ms", len(mutations))
        metrics["mutate_ms.p90"] = (percentile(mutations, 90), "ms", len(mutations))
    return metrics


def _sum_stats(load: Load) -> Dict[str, float]:
    totals: Dict[str, float] = {}

    def add(key, value):
        totals[key] = totals.get(key, 0) + value

    for launch in load.launches:
        if not launch.stats:
            continue
        add("errors", launch.stats["service"]["errors"])
        for dataset in launch.stats["datasets"]:
            engine = dataset["engine"]
            for key in ("hits", "misses", "evicted", "retained", "invalidations"):
                add(key, engine[key])
            for key, value in engine["plan_decisions"].items():
                add("plan." + key, value)
            add("coalesced", dataset["coalescer"]["coalesced"])
    return totals


def per_layer(load: Load, untraced: Load) -> Dict[str, tuple]:
    """Per-layer metrics of a traced load, name -> (value, unit)."""
    spans: Dict[str, List[float]] = {}
    counters: Dict[str, float] = {}
    server_requests: Dict[int, dict] = {}
    worker_root_s = 0.0
    for launch in load.launches:
        trace = launch.trace
        for name, (count, total, self_time) in trace["spans"].items():
            entry = spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += count
            entry[1] += total
            entry[2] += self_time
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0) + value
        for record in trace["requests"]:
            server_requests[record["id"]] = record
        worker_root_s += trace["worker_root_s"]

    def total_ms(name):
        return spans.get(name, [0, 0.0, 0.0])[1] * 1e3

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    stats = _sum_stats(load)
    checked = load.samples + load.untimed
    slow_host = [name for name in spans
                 if name.startswith("serve.host.") and name != "serve.host.fast"]
    slow_calls = sum(calls(name) for name in slow_host)
    wait_ms = (sum(total_ms(name) for name in slow_host) - worker_root_s * 1e3) / max(slow_calls, 1)
    fast_hits = counters.get("serve.fast_hits", 0)
    reads_on_host = calls("serve.host.preview") + calls("serve.host.sweep")
    # Coverage: the client-observed time of requests whose server-side
    # span was recorded, on the same clock, inside the client's interval.
    observed = covered = 0.0
    wire = []
    for sample in checked:
        rtt = sample.t_done - sample.t_start
        observed += rtt
        record = server_requests.get(sample.id)
        if record is None or record["t_out"] is None:
            continue
        if sample.t_start <= record["t_in"] <= record["t_out"] <= sample.t_done:
            covered += rtt
            wire.append((rtt - record["host"]) * 1e3)
    request_ms = sum((r["t_out"] - r["t_in"]) * 1e3 for r in server_requests.values()
                     if r["t_out"] is not None)
    # Median latency of the same seeded requests, traced against untraced
    # (a sum would follow the few requests a host stall delayed).
    traced_ms = statistics.median(s.latency_ms for s in load.samples)
    plain_ms = statistics.median(s.latency_ms for s in untraced.samples)
    metrics = {
        "serve.fast_hit_ratio": (fast_hits / max(fast_hits + reads_on_host, 1), "ratio"),
        "serve.coalesced": (stats.get("coalesced", 0), "count"),
        "serve.wait_ms": (wait_ms, "ms"),
        "serve.wire_ms": (statistics.mean(wire) if wire else 0.0, "ms"),
        "serve.failed": (stats.get("errors", 0), "count"),
        "engine.self_ms": (spans.get("engine", [0, 0.0, 0.0])[2] * 1e3, "ms"),
        "engine.memo_hit_ratio": (
            stats.get("hits", 0) / max(stats.get("hits", 0) + stats.get("misses", 0), 1), "ratio"),
        "engine.evicted": (stats.get("evicted", 0), "count"),
        "engine.retained": (stats.get("retained", 0), "count"),
        "engine.invalidations": (stats.get("invalidations", 0), "count"),
        "graph.cliques_ms": (total_ms("graph.cliques"), "ms"),
        "graph.cliques_calls": (calls("graph.cliques"), "count"),
        "graph.subsets": (counters.get("graph.cliques.subsets", 0), "count"),
        "graph.distance_oracle_ms": (total_ms("graph.distance_oracle"), "ms"),
        "kernel.ms": (total_ms("kernel"), "ms"),
        "kernel.lower_ms": (total_ms("kernel.lower"), "ms"),
        "kernel.batches": (calls("kernel"), "count"),
        "kernel.subsets": (counters.get("kernel.subsets", 0), "count"),
        "core.profile_ms": (total_ms("core.profile"), "ms"),
        "core.profiles": (calls("core.profile"), "count"),
        "core.dp_ms": (total_ms("core.dp"), "ms"),
        "core.serialize_ms": (total_ms("core.serialize"), "ms"),
        "scoring.context_ms": (total_ms("scoring.context"), "ms"),
        "scoring.pool_build_ms": (total_ms("scoring.pool_build"), "ms"),
        "scoring.pool_patch_ms": (total_ms("scoring.pool_patch"), "ms"),
        "ext.mutate_ms": (total_ms("ext.mutate"), "ms"),
        "ext.mutations": (calls("ext.mutate"), "count"),
        "ext.refresh_ms": (total_ms("ext.refresh"), "ms"),
        "model.log_records": (counters.get("model.log_records", 0), "count"),
        "store.open_ms": (total_ms("store.open"), "ms"),
        "store.materialize_ms": (total_ms("store.materialize"), "ms"),
        "datasets.generate_ms": (total_ms("datasets.generate"), "ms"),
        "plan.sharded": (stats.get("plan.sharded", 0), "count"),
        "plan.serial": (stats.get("plan.serial", 0), "count"),
        "parallel.ms": (total_ms("parallel"), "ms"),
        "parallel.dispatches": (calls("parallel"), "count"),
        "share.graph.cliques": (total_ms("graph.cliques") / max(request_ms, 1e-9), "ratio"),
        "share.kernel": (total_ms("kernel") / max(request_ms, 1e-9), "ratio"),
        "share.core.profile": (total_ms("core.profile") / max(request_ms, 1e-9), "ratio"),
        "trace.coverage": (covered / observed if observed else 0.0, "ratio"),
        "trace.overhead": (traced_ms / plain_ms - 1.0, "ratio"),
        "bench.late_ms.p90": (percentile(load.late_ms, 90) if load.late_ms else 0.0, "ms"),
    }
    return metrics


def environment(load: Load) -> Dict[str, object]:
    """What a reader needs to explain a run: host, versions, verdicts."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    engine = load.launches[-1].stats["datasets"][0]["engine"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel_backend": engine["kernel_backend"],
        "plan_mode": engine["plan_mode"],
        "plan_decisions": {key[5:]: value for key, value in _sum_stats(load).items()
                           if key.startswith("plan.")},
        "bench.late_ms.p90": percentile(load.late_ms, 90) if load.late_ms else 0.0,
        "steal_share": statistics.mean(load.steal) if load.steal else 0.0,
    }


def run_workload(bench: Bench, workload: str, trace: bool) -> dict:
    plain = bench.execute(workload, traced=False)
    loads = [plain]
    if trace:
        traced = bench.execute(workload, traced=True)
        loads.append(traced)
    problems = bench.check(workload, loads)
    attempted = sum(len(load.samples) + len(load.untimed) for load in loads)
    for problem in problems:
        print(f"{workload}: FAIL {problem}", file=sys.stderr)
    print(f"{workload}: env {json.dumps(environment(plain), sort_keys=True)}")
    e2e = end_to_end(plain)
    for name, (value, unit, count) in e2e.items():
        print(f"{workload}: {name} = {value:.6g} {unit} (n={count})")
    result = {"correct": not problems, "attempted": attempted, "failed": len(problems)}
    if trace:
        layers = per_layer(traced, plain)
        for name, (value, unit) in layers.items():
            print(f"{workload}: {name} = {value:.6g} {unit}")
        coverage = layers["trace.coverage"][0]
        if coverage < MIN_COVERAGE:
            print(f"{workload}: trace.coverage {coverage:.3f} is below {MIN_COVERAGE}",
                  file=sys.stderr)
            result["correct"] = False
        result["metrics"] = {name: {"value": value, "unit": unit}
                             for name, (value, unit) in layers.items()}
    else:
        result["metrics"] = {name: {"value": e2e[name][0], "unit": e2e[name][1]}
                             for name in GATED}
    print(f"{workload}: failed_ratio = {len(problems) / attempted:.6g} ratio (n={attempted})")
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print("error: run from the root of a repro checkout (no src/repro/cli.py here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    bench = Bench(root, args.seed, args.seconds)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(bench, name, bool(args.trace)) for name in names}
    except (BenchError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
