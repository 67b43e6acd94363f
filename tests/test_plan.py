"""The execution planner: one static rule, every mode bit-identical.

Two layers, mirroring the planner's own contract:

* **Rule units** — mode forcing and validation, the threshold rule and
  its single-core affinity veto, the ``min(jobs, n)`` shard layout,
  the process-wide caches and decision counters, and the guarantee
  that execution history never moves a verdict.
* **The hypothesis property** — for random schema pools, query points
  and *any* ``REPRO_PLAN`` forcing, planner-chosen execution is
  bit-identical to the serial oracle (``float.hex`` scores + winning
  key subset) for all four discovery algorithms, including runs with
  mutations interleaved between sharded sweeps.  Planning may only ever
  move wall time, never answers.
"""

import itertools
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import config, kernel, plan
from repro.core import make_context
from repro.datasets import random_schema_graph
from repro.engine import PreviewEngine, PreviewQuery
from repro.exceptions import InfeasiblePreviewError, KernelError, PlanError
from repro.parallel import ScoringSnapshot, ShardedExecutor
from repro.scoring import ScoringContext

#: Worker count for the equivalence properties (the CI planner leg also
#: re-runs the whole suite under REPRO_PLAN=serial and =auto).
JOBS = config.test_jobs()

#: Every planner mode, plus ``static``: the fixed-threshold rule's old
#: mode name, whose cases now run under ``auto`` (the same rule).
PLAN_CASES = (*plan.PLAN_MODES, pytest.param("auto", id="static"))

SMALL = settings(
    max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

schema_params = st.tuples(
    st.integers(min_value=3, max_value=8),  # types
    st.integers(min_value=3, max_value=12),  # rel types
    st.integers(min_value=0, max_value=10_000),  # seed
)


def context_for(params) -> ScoringContext:
    num_types, num_rels, seed = params
    schema = random_schema_graph(
        num_types, max(num_rels, num_types - 1), seed=seed
    )
    return ScoringContext(schema)


def counted(before):
    """Decision-counter deltas since ``before`` (counters are process-wide)."""
    return {
        key: value - before[key]
        for key, value in plan.decision_counts().items()
    }


@pytest.fixture
def many_cores(monkeypatch):
    """Pretend this box has 8 usable cores (defeats the affinity veto)."""
    monkeypatch.setattr(plan, "usable_cpus", lambda: 8)


# ----------------------------------------------------------------------
# Planner decisions
# ----------------------------------------------------------------------
class TestPlannerDecisions:
    def test_serial_mode_never_shards(self, many_cores):
        before = plan.decision_counts()
        with plan.use_mode("serial"):
            assert not plan.should_shard(10**6, jobs=8)
        assert counted(before) == {
            "serial": 1,
            "sharded": 0,
            "vetoed_single_core": 0,
        }

    def test_sharded_mode_forces_even_past_the_veto(self, monkeypatch):
        """Forced sharding is a bisection tool: it bypasses the veto."""
        monkeypatch.setattr(plan, "usable_cpus", lambda: 1)
        before = plan.decision_counts()
        with plan.use_mode("sharded"):
            assert plan.should_shard(2, jobs=2)
            assert not plan.should_shard(1, jobs=2)  # nothing to split
            assert not plan.should_shard(100, jobs=1)  # no workers
        counts = counted(before)
        assert counts["sharded"] == 1 and counts["serial"] == 2
        assert counts["vetoed_single_core"] == 0

    def test_static_mode_is_the_threshold_rule(self, many_cores, monkeypatch):
        """The fixed-threshold rule (once the ``static`` mode) is ``auto``.

        With no override the crossover is the default threshold, and
        ``static`` itself is no longer a mode name.
        """
        monkeypatch.delenv(plan.ENV_THRESHOLD, raising=False)
        threshold = plan.DEFAULT_DISPATCH_THRESHOLD
        before = plan.decision_counts()
        with plan.use_mode("auto"):
            assert plan.should_shard(threshold, jobs=2)
            assert not plan.should_shard(threshold - 1, jobs=2)
        counts = counted(before)
        assert counts["sharded"] == 1 and counts["serial"] == 1
        with pytest.raises(PlanError, match="unknown planner mode"):
            with plan.use_mode("static"):
                pass  # pragma: no cover - must not execute

    def test_auto_falls_back_to_threshold_while_cold(
        self, many_cores, monkeypatch
    ):
        """With no execution history, ``auto`` decides by the threshold."""
        monkeypatch.setenv(plan.ENV_THRESHOLD, "100")
        before = plan.decision_counts()
        with plan.use_mode("auto"):
            assert plan.should_shard(100, jobs=4)
            assert not plan.should_shard(99, jobs=4)
            assert not plan.should_shard(10**6, jobs=1)  # no workers
            assert not plan.should_shard(1, jobs=4)  # nothing to split
        counts = counted(before)
        assert counts["sharded"] == 1 and counts["serial"] == 3

    def test_auto_verdict_ignores_execution_history(
        self, many_cores, monkeypatch
    ):
        """Past dispatch timings never move a verdict off the rule.

        Serial and pooled dispatches of a few dozen subsets — where the
        pool always loses to the inline kernel — are exactly the history
        a timing-driven planner would learn "never shard" from.  The
        verdict must stay the threshold rule regardless.
        """
        monkeypatch.setenv(plan.ENV_THRESHOLD, "10")
        context = context_for((8, 12, 7))
        pool = context.candidate_pool()
        subsets = list(itertools.combinations(sorted(pool.index), 2))
        snapshot = ScoringSnapshot.from_pool(pool)
        with ShardedExecutor(2) as executor:
            for n in (2, 4, 8, 16, len(subsets)):
                for _ in range(2):
                    kernel.best_allocation(pool, subsets[:n], 2)
                    executor.best_allocation(snapshot, subsets[:n], 2)
        with plan.use_mode("auto"):
            for n in (9, 10, 100, 10_000):
                assert plan.should_shard(n, jobs=4) == (n >= 10), n

    def test_auto_single_core_veto(self, monkeypatch):
        monkeypatch.setattr(plan, "usable_cpus", lambda: 1)
        before = plan.decision_counts()
        with plan.use_mode("auto"):
            assert not plan.should_shard(10**6, jobs=8)
        counts = counted(before)
        assert counts["vetoed_single_core"] == 1
        assert counts["serial"] == 1

    def test_reset_stats_zeroes_counters(self, many_cores):
        with plan.use_mode("serial"):
            plan.should_shard(10, jobs=2)
        plan.reset_plan_stats()
        assert all(v == 0 for v in plan.decision_counts().values())


class TestShardLayout:
    def test_static_layout_is_the_pr6_tiling(self):
        assert plan.shard_layout(10, jobs=4) == [3, 3, 2, 2]  # first-heavy
        assert plan.shard_layout(3, jobs=4) == [1, 1, 1]
        assert plan.shard_layout(100, jobs=2) == [50, 50]

    def test_layout_never_goes_below_the_job_floor(self):
        """Every layout is exactly min(jobs, n) non-empty, near-equal shards."""
        for n, jobs in itertools.product((1, 2, 7, 16_000), (1, 2, 4, 9)):
            layout = plan.shard_layout(n, jobs)
            assert len(layout) == min(jobs, n)
            assert sum(layout) == n
            assert min(layout) >= 1
            assert max(layout) - min(layout) <= 1

    @pytest.mark.parametrize("mode", PLAN_CASES)
    def test_degenerate_layouts(self, mode, many_cores):
        with plan.use_mode(mode):
            assert plan.shard_layout(0, jobs=4) == []
            assert plan.shard_layout(5, jobs=1) == [5]
            assert plan.shard_layout(1, jobs=4) == [1]


# ----------------------------------------------------------------------
# Mode selection, caches and process-wide state
# ----------------------------------------------------------------------
class TestModeAndCaches:
    def test_plan_mode_defaults_to_auto(self, monkeypatch):
        monkeypatch.delenv(plan.ENV_PLAN, raising=False)
        assert plan.plan_mode() == "auto"

    def test_plan_mode_reads_and_validates_the_env(self, monkeypatch):
        monkeypatch.setenv(plan.ENV_PLAN, "SHARDED")  # case-insensitive
        assert plan.plan_mode() == "sharded"
        for bogus in ("bogus", "static"):
            monkeypatch.setenv(plan.ENV_PLAN, bogus)
            with pytest.raises(PlanError, match="REPRO_PLAN"):
                plan.plan_mode()

    def test_use_mode_overrides_env_and_restores(self, monkeypatch):
        monkeypatch.setenv(plan.ENV_PLAN, "serial")
        with plan.use_mode("sharded"):
            assert plan.plan_mode() == "sharded"
            with plan.use_mode("auto"):  # nesting restores one level
                assert plan.plan_mode() == "auto"
            assert plan.plan_mode() == "sharded"
        assert plan.plan_mode() == "serial"

    def test_use_mode_rejects_unknown_modes(self):
        for unknown in ("turbo", "static"):
            with pytest.raises(PlanError, match="unknown planner mode"):
                with plan.use_mode(unknown):
                    pass  # pragma: no cover - must not execute

    def test_usable_cpus_probes_once_until_reset(self, monkeypatch):
        if not hasattr(os, "sched_getaffinity"):  # pragma: no cover
            pytest.skip("no affinity mask on this platform")
        plan.reset_plan_caches()
        calls = []
        real = os.sched_getaffinity

        def probe(pid):
            calls.append(pid)
            return real(pid)

        monkeypatch.setattr(os, "sched_getaffinity", probe)
        first = plan.usable_cpus()
        assert plan.usable_cpus() == first
        assert len(calls) == 1  # memoized: the hot path never re-probes
        plan.reset_plan_caches()
        assert plan.usable_cpus() == first
        assert len(calls) == 2  # reset hook forces one re-probe

    def test_dispatch_threshold_memo_tracks_env(self, monkeypatch):
        plan.reset_plan_caches()
        monkeypatch.delenv(plan.ENV_THRESHOLD, raising=False)
        assert plan.dispatch_threshold() == plan.DEFAULT_DISPATCH_THRESHOLD
        monkeypatch.setenv(plan.ENV_THRESHOLD, "123")
        assert plan.dispatch_threshold() == 123  # memo keyed by raw value
        monkeypatch.setenv(plan.ENV_THRESHOLD, "nope")
        with pytest.raises(KernelError, match="must be an integer"):
            plan.dispatch_threshold()


# ----------------------------------------------------------------------
# The bit-identity property
# ----------------------------------------------------------------------
def fingerprint(result):
    """(hex score, winning key subset) — the bit-identity witness."""
    if result is None:
        return None
    return (float(result.score).hex(), tuple(result.preview.keys()))


def answer_grid(context, queries, jobs):
    engine = PreviewEngine(context)
    answers = []
    for query in queries:
        try:
            answers.append(engine.run(query, jobs=jobs))
        except InfeasiblePreviewError:
            answers.append(None)
    return answers


class TestModeBitIdentity:
    """Any REPRO_PLAN forcing answers exactly like the serial oracle."""

    @SMALL
    @given(
        schema_params,
        st.integers(2, 3),
        st.integers(1, 3),
        st.sampled_from(plan.PLAN_MODES),
    )
    def test_all_four_algorithms_match_the_serial_oracle(
        self, params, k, d, mode
    ):
        context = context_for(params)
        k = min(k, params[0])
        queries = [
            PreviewQuery(k=k, n=k + 3, algorithm="brute-force"),
            PreviewQuery(k=k, n=k + 3, algorithm="dynamic-programming"),
            PreviewQuery(k=k, n=k + 3, algorithm="branch-and-bound"),
            PreviewQuery(k=k, n=k + 3, d=d, mode="tight", algorithm="apriori"),
            PreviewQuery(
                k=k, n=k + 3, d=d, mode="diverse", algorithm="apriori"
            ),
            PreviewQuery(
                k=k, n=k + 3, d=d, mode="tight", algorithm="brute-force"
            ),
        ]
        with plan.use_mode("serial"):
            oracle = answer_grid(context, queries, jobs=1)
        with plan.use_mode(mode):
            answered = answer_grid(context, queries, jobs=JOBS)
        assert [fingerprint(r) for r in answered] == [
            fingerprint(r) for r in oracle
        ], mode
        assert answered == oracle  # full dataclass equality, not just hex

    @SMALL
    @given(
        schema_params,
        st.integers(1, 3),
        st.sampled_from(plan.PLAN_MODES),
    )
    def test_sweeps_match_the_serial_oracle(self, params, d, mode):
        context = context_for(params)
        k = min(3, params[0])
        grid = list(
            PreviewQuery.grid(
                ks=(2, k),
                ns=(k + 1, k + 3, k + 5),
                distances=[None, (d, "tight"), (d, "diverse")],
            )
        )
        with plan.use_mode("serial"):
            oracle = PreviewEngine(context).sweep(grid, skip_infeasible=True)
        with plan.use_mode(mode):
            answered = PreviewEngine(context).sweep(
                grid, skip_infeasible=True, jobs=JOBS
            )
        assert [fingerprint(r) for r in answered] == [
            fingerprint(r) for r in oracle
        ], mode
        assert answered == oracle

    @SMALL
    @given(st.integers(0, 10_000), st.sampled_from(plan.PLAN_MODES))
    def test_mutation_interleaved_runs_stay_identical(self, seed, mode):
        """Mutations between planner-driven sweeps never change answers.

        After every mutation the next planner-driven batch must still
        equal a fresh serial engine on the same graph, bit for bit.
        """
        from repro.ext import IncrementalEntityGraph
        from repro.model import RelationshipTypeId

        acted = RelationshipTypeId("Acted In", "ACTOR", "FILM")
        directed = RelationshipTypeId("Directed", "DIRECTOR", "FILM")
        inc = IncrementalEntityGraph(name=f"plan-delta-{seed}")
        inc.add_entity("film0", ["FILM"])
        inc.add_entity("actor0", ["ACTOR"])
        inc.add_entity("director0", ["DIRECTOR"])
        inc.add_relationship("actor0", "film0", acted)
        inc.add_relationship("director0", "film0", directed)
        engine = inc.engine()
        grid = [
            PreviewQuery(k=2, n=n, d=1, mode="tight") for n in (3, 4)
        ] + [PreviewQuery(k=2, n=4)]
        for batch in range(3):
            with plan.use_mode(mode):
                planned = engine.sweep(grid, skip_infeasible=True, jobs=JOBS)
            with plan.use_mode("serial"):
                oracle = PreviewEngine(make_context(inc.entity_graph)).sweep(
                    grid, skip_infeasible=True
                )
            assert [fingerprint(r) for r in planned] == [
                fingerprint(r) for r in oracle
            ], (seed, mode, batch)
            assert planned == oracle
            inc.add_entity(f"film{batch + 1}", ["FILM"])
            inc.add_relationship(
                ("actor0", "director0")[batch % 2],
                f"film{batch + 1}",
                (acted, directed)[batch % 2],
            )


class TestEngineDecisionAccounting:
    def test_cache_info_reports_mode_and_decision_deltas(self, fig1_context):
        engine = PreviewEngine(fig1_context)
        info = engine.cache_info()
        assert info["plan_mode"] == plan.plan_mode()
        assert info["plan_decisions"] == {}
        with plan.use_mode("sharded"):
            engine.sweep(
                [PreviewQuery(k=2, n=n) for n in (4, 5)],
                skip_infeasible=True,
                jobs=2,
            )
        decisions = engine.cache_info()["plan_decisions"]
        # The engine attributes only its own deltas — whatever this box
        # decided, the counters are non-negative and strategy-shaped.
        assert all(v >= 0 for v in decisions.values())
        assert set(decisions) <= {"serial", "sharded", "vetoed_single_core"}
