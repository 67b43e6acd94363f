"""Binary store benchmark — O(header) cold opens vs domain regeneration.

The seed's only way to get a serving-ready graph was to regenerate it:
every serve host, replica and workload replay re-ran the Freebase-like
generator (O(entities) of sampling and wiring) before answering its
first request.  The persistent binary store (``docs/disk-store.md``)
amortizes that once: ``build_store`` serializes the graph, and
``open_store`` maps it back with a fixed-cost header read — the data
sections fault in lazily, so opening is O(header) however large the
graph is.

Two scales of the architecture domain (the efficiency-experiment domain
whose generator is the most expensive per entity), each measured over
``ROUNDS`` rounds:

* **open** — ``open_store`` + header introspection (name, counts,
  fingerprint).  Must beat regeneration by ``OPEN_SPEEDUP_FLOOR``× at
  the largest scale, and must grow *sub-linearly* between scales (the
  whole point of a fixed-size header: the graph grows, the open does
  not proportionally).
* **materialize** — ``open_store`` + ``entity_graph()`` (fingerprint
  verified), the full cold-start a serve host pays.
* **regenerate** — ``generate_domain``, the seed behavior.

Identity is asserted the strict way: the flagship tight query answers
with byte-identical ``float.hex`` scores and equal serialized payloads
on the regenerated and the store-materialized graph.

A third row records the real-scale cold start: **music** at scale 1000
(215,480 mutations), where both materialize and regenerate run through
``EntityGraph.bulk_load``.  It records ``build_ms``, ``store_bytes``,
``materialize_ms`` and ``regenerate_ms`` and asserts only that the two
graphs agree
(fingerprint, generation, relationship-type order and the exact
relationship sequence) — no timing floor.

Wall times land in ``BENCH_store.json`` at the repo root.  Run directly
(``PYTHONPATH=src python benchmarks/bench_store.py``) or through pytest
(``pytest benchmarks/bench_store.py``).
"""

import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import SEED  # noqa: E402

from repro.core.serialize import result_to_dict  # noqa: E402
from repro.datasets import generate_domain  # noqa: E402
from repro.datasets.loader import graph_fingerprint  # noqa: E402
from repro.engine import PreviewEngine  # noqa: E402
from repro.store import STORE_EXTENSION, build_store, open_store  # noqa: E402

DOMAIN = "architecture"
#: Downscale factors, largest graph last (smaller factor = more entities).
SCALES = (1000, 250)
#: Flagship identity query (tight d=2 at k=3 — profiles, merges, ties).
K, N, D, MODE = 3, 8, 2, "tight"
#: Required regenerate-over-open advantage at the largest scale.
OPEN_SPEEDUP_FLOOR = 10.0
#: Timing rounds per leg (minimum taken: opens are microsecond-scale and
#: any scheduler blip would otherwise dominate them).
ROUNDS = 5
RESULT_FILE = Path(__file__).resolve().parents[1] / "BENCH_store.json"
#: The real-scale row: recorded, not gated.
MUSIC_DOMAIN, MUSIC_SCALE = "music", 1000


def _best_ms(fn, rounds=ROUNDS) -> float:
    """Minimum wall milliseconds of ``fn`` over ``rounds`` runs."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, (time.perf_counter() - start) * 1000.0)
    return best


def _measure_scale(scale: int, directory: Path) -> dict:
    graph = generate_domain(DOMAIN, scale=scale, seed=SEED)
    path = directory / f"{DOMAIN}-{scale}{STORE_EXTENSION}"
    start = time.perf_counter()
    size = build_store(graph, path)
    build_ms = (time.perf_counter() - start) * 1000.0

    def open_header():
        with open_store(path) as store:
            # The realistic O(header) surface: identity + counts.
            assert store.name == DOMAIN
            assert store.entity_count > 0
            assert store.fingerprint.startswith("sha256:")

    def materialize():
        with open_store(path) as store:
            store.entity_graph(verify=True)

    def regenerate():
        generate_domain(DOMAIN, scale=scale, seed=SEED)

    open_ms = _best_ms(open_header)
    materialize_ms = _best_ms(materialize, rounds=2)
    regenerate_ms = _best_ms(regenerate, rounds=2)

    with open_store(path) as store:
        reopened = store.entity_graph(verify=True)
    reference = PreviewEngine(graph).query(k=K, n=N, d=D, mode=MODE)
    result = PreviewEngine(reopened).query(k=K, n=N, d=D, mode=MODE)
    return {
        "scale": scale,
        "entities": len(list(graph.entities())),
        "relationships": len(list(graph.relationships())),
        "store_bytes": size,
        "build_ms": round(build_ms, 3),
        "open_ms": round(open_ms, 4),
        "materialize_ms": round(materialize_ms, 3),
        "regenerate_ms": round(regenerate_ms, 3),
        "open_speedup": round(regenerate_ms / open_ms, 1)
        if open_ms > 0
        else float("inf"),
        "fingerprint_identical": (
            graph_fingerprint(reopened) == graph_fingerprint(graph)
        ),
        "score_hex": result.score.hex(),
        "score_hex_identical": result.score.hex() == reference.score.hex(),
        "payload_identical": result_to_dict(result) == result_to_dict(reference),
    }


def _measure_music(directory: Path) -> dict:
    graph = generate_domain(MUSIC_DOMAIN, scale=MUSIC_SCALE, seed=SEED)
    path = directory / f"{MUSIC_DOMAIN}-{MUSIC_SCALE}{STORE_EXTENSION}"
    start = time.perf_counter()
    size = build_store(graph, path)
    build_ms = (time.perf_counter() - start) * 1000.0

    def materialize():
        with open_store(path) as store:
            return store.entity_graph(verify=True)

    def regenerate():
        generate_domain(MUSIC_DOMAIN, scale=MUSIC_SCALE, seed=SEED)

    materialize_ms = _best_ms(materialize, rounds=2)
    regenerate_ms = _best_ms(regenerate, rounds=2)
    reopened = materialize()
    return {
        "domain": MUSIC_DOMAIN,
        "scale": MUSIC_SCALE,
        "entities": graph.entity_count,
        "relationships": graph.edge_count,
        "generation": graph.generation,
        "store_bytes": size,
        "build_ms": round(build_ms, 3),
        "materialize_ms": round(materialize_ms, 3),
        "regenerate_ms": round(regenerate_ms, 3),
        "fingerprint_identical": (
            graph_fingerprint(reopened) == graph_fingerprint(graph)
        ),
        "generation_identical": reopened.generation == graph.generation,
        "order_identical": (
            reopened.relationship_types() == graph.relationship_types()
            and list(reopened.relationships()) == list(graph.relationships())
        ),
    }


def run_benchmark():
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as tmp:
        scales = [_measure_scale(scale, Path(tmp)) for scale in SCALES]
        music = _measure_music(Path(tmp))
    smallest, largest = scales[0], scales[-1]
    growth = {
        "entity_ratio": round(largest["entities"] / smallest["entities"], 2),
        "open_ratio": round(largest["open_ms"] / smallest["open_ms"], 2)
        if smallest["open_ms"] > 0
        else 0.0,
    }
    growth["sublinear"] = growth["open_ratio"] < growth["entity_ratio"]
    payload = {
        "benchmark": "disk_store",
        "domain": DOMAIN,
        "point": [K, N, D, MODE],
        "rounds": ROUNDS,
        "open_speedup_floor": OPEN_SPEEDUP_FLOOR,
        "scales": scales,
        "open_growth": growth,
        "music": music,
    }
    RESULT_FILE.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def check(payload):
    for entry in payload["scales"]:
        assert entry["fingerprint_identical"], (
            f"scale {entry['scale']}: reopened graph fingerprint drifted"
        )
        assert entry["score_hex_identical"] and entry["payload_identical"], (
            f"scale {entry['scale']}: store-materialized graph answered the "
            f"flagship query differently (score {entry['score_hex']})"
        )
    largest = payload["scales"][-1]
    assert largest["open_speedup"] >= payload["open_speedup_floor"], (
        f"cold open only {largest['open_speedup']:.1f}x faster than "
        f"regeneration at scale {largest['scale']} "
        f"(floor {payload['open_speedup_floor']}x): open "
        f"{largest['open_ms']:.2f} ms vs regenerate "
        f"{largest['regenerate_ms']:.0f} ms"
    )
    music = payload["music"]
    assert (
        music["fingerprint_identical"]
        and music["generation_identical"]
        and music["order_identical"]
    ), (
        f"music scale {music['scale']}: the materialized graph drifted from "
        "the generated one"
    )
    growth = payload["open_growth"]
    assert growth["sublinear"], (
        f"open time grew {growth['open_ratio']}x while the graph grew "
        f"{growth['entity_ratio']}x — the header is no longer O(1)"
    )


def test_disk_store_bench(benchmark):
    payload = benchmark.pedantic(run_benchmark, rounds=1, iterations=1)
    check(payload)


if __name__ == "__main__":
    result = run_benchmark()
    print(json.dumps(result, indent=2, sort_keys=True))
    check(result)
    largest = result["scales"][-1]
    print(
        f"{DOMAIN} scale {largest['scale']}: open {largest['open_ms']:.2f} ms "
        f"vs regenerate {largest['regenerate_ms']:.0f} ms "
        f"({largest['open_speedup']:.0f}x), open growth "
        f"{result['open_growth']['open_ratio']}x for "
        f"{result['open_growth']['entity_ratio']}x more entities; payloads "
        "bit-identical"
    )
    music = result["music"]
    print(
        f"{music['domain']} scale {music['scale']}: build "
        f"{music['build_ms']:.0f} ms ({music['store_bytes']} bytes), "
        f"materialize {music['materialize_ms']:.0f} ms vs regenerate "
        f"{music['regenerate_ms']:.0f} ms"
    )
