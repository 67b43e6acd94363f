"""The benchmark's own tests: op generation and traced-launcher coverage.

Run from the root of a checkout::

    python3 perfbench/selftest.py

The launcher smoke test starts two short traced film servers (one from
a ``.rgs`` store with the planner forced to shard, one generated with it
forced to stay serial), sends
one request of every kind, and requires a span from every wrapped name,
so a rename in the program fails here instead of silently zeroing a
layer of the traced run.
"""

from __future__ import annotations

import collections
import itertools
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import launcher  # noqa: E402
import ops  # noqa: E402
from client import Connection, Server, server_env  # noqa: E402


def _plain(op_list):
    return [(op.op, json.dumps(op.params, sort_keys=True), op.tag, op.due, op.conn)
            for op in op_list]


def _writes(seed, bursts):
    return list(itertools.islice(ops.writer_stream(seed), bursts))


class OpGenerationTest(unittest.TestCase):
    def test_same_seed_same_ops(self):
        import random

        self.assertEqual(_plain(ops.explore_pass(random.Random(7))),
                         _plain(ops.explore_pass(random.Random(7))))
        self.assertEqual(_plain(ops.film_schedule(7, 5)), _plain(ops.film_schedule(7, 5)))
        first, second = _writes(7, 50), _writes(7, 50)
        self.assertEqual([_plain(b) + _plain([r]) for b, r in first],
                         [_plain(b) + _plain([r]) for b, r in second])
        self.assertEqual(_plain(itertools.islice(ops.reader_stream(7), 200)),
                         _plain(itertools.islice(ops.reader_stream(7), 200)))

    def test_seeds_share_menu_and_shares(self):
        import random

        passes = [ops.explore_pass(random.Random(seed)) for seed in (1, 2)]
        self.assertNotEqual(_plain(passes[0]), _plain(passes[1]))
        menus = [sorted((op, params) for op, params, *_ in _plain(p)) for p in passes]
        self.assertEqual(menus[0], menus[1])
        self.assertGreaterEqual(sum(op.op == "preview" for op in passes[0]), 100)

        schedules = [ops.film_schedule(seed, 10) for seed in (1, 2)]
        hot = {json.dumps(op.params, sort_keys=True) for op in ops.FILM_HOT}
        for schedule in schedules:
            kinds = collections.Counter(
                "stats" if op.op == "stats" else "tail" if op.tag == "fresh" else "hot"
                for op in schedule)
            for kind, share in ops.FILM_SHARES:
                self.assertAlmostEqual(kinds[kind] / len(schedule), share, delta=0.02)
            reads = [json.dumps(op.params, sort_keys=True) for op in schedule if op.tag == "read"]
            self.assertTrue(set(reads) <= hot)
            tails = [json.dumps(op.params, sort_keys=True) for op in schedule if op.tag == "fresh"]
            self.assertEqual(len(tails), len(set(tails)))
            self.assertFalse(set(tails) & hot)

        for seed in (1, 2):
            bursts = _writes(seed, 40)
            self.assertTrue(all(len(burst) == ops.BURST for burst, _ in bursts))
            structural = [i for i, (burst, _) in enumerate(bursts)
                          if burst[-1].params.get("name", "").startswith("Perfbench Link")]
            self.assertEqual(structural, [19, 39])


class LauncherSmokeTest(unittest.TestCase):
    def test_every_wrapped_name_records_a_span(self):
        work = ROOT / ".perfbench-work"
        work.mkdir(exist_ok=True)
        env = server_env(ROOT)
        store = work / "selftest-film.rgs"
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "dataset", "build", "--domain", "film",
             "--out", str(store)],
            cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
        hits = collections.Counter()
        ids = itertools.count(1)
        # The first server shards every dispatch, the second none.
        launches = (["--store", str(store)], "sharded"), (["--datasets", "film"], "serial")
        for number, (source, plan) in enumerate(launches):
            out = work / f"selftest-trace-{number}.json"
            argv = [sys.executable, str(HERE / "launcher.py"), "--trace-out", str(out),
                    "serve", *source, "--jobs", "2", "--port", "0"]
            server = Server(argv, dict(env, REPRO_PLAN=plan), ROOT,
                            work / f"selftest-{number}.log").start()
            try:
                conn = Connection(server.port, ids)
                requests = [
                    ops.preview(3, 6, 2, "tight"),
                    ops.preview(3, 6, 2, "tight"),  # answered by the fast path
                    ops.sweep(2, range(3, 8), 2, "tight"),
                    ops.preview(3, 7),
                    ops.Op("mutate", {"kind": "entity", "entity": "selftest-x",
                                      "types": ["FILM"]}),
                    ops.preview(3, 8, 2, "tight"),
                    ops.Op("mutate", {"kind": "relationship", "source": "selftest-x",
                                      "target": "selftest-x", "name": "Selftest",
                                      "source_type": "FILM", "target_type": "FILM"}),
                    ops.preview(2, 5, 2, "tight"),
                    ops.Op("stats", {}),
                ]
                for op in requests:
                    sample = conn.request(op)
                    self.assertTrue(sample.ok, sample.response)
                conn.close()
            finally:
                server.stop()
            hits.update(json.loads(out.read_text())["hits"])
        wrapped = [f"{module}:{path}" for module, path, _, _ in launcher.WRAPS]
        wrapped += launcher.BOUNDARY
        missing = [name for name in wrapped if not hits.get(name)]
        self.assertEqual(missing, [], "wrapped names that recorded no span")
        self.assertTrue(any(name.endswith(".lower") for name in hits))


if __name__ == "__main__":
    unittest.main()
