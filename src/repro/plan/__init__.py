"""Execution planning for subset scoring (``repro.plan``).

Every subset-evaluation call site asks one question: *is this batch
worth worker processes?*  The answer is one static rule — shard only
when ``jobs > 1``, more than one core is usable and the subset count
reaches :func:`dispatch_threshold` — and a sharded batch is split into
``min(jobs, n)`` near-equal shards (:func:`shard_layout`).  Three
modes, selected by ``REPRO_PLAN`` (or in-process via :func:`use_mode`):

``auto`` (default)
    The rule above.  A single-core affinity mask vetoes sharding:
    workers pinned to one core serialize anyway.
``serial``
    Never shard; every batch runs the serial batched kernel inline.
``sharded``
    Always shard multi-subset batches when ``jobs > 1``, past the veto
    — kept forceable for benchmarks and bisection.

Every decision increments a process-wide counter
(:func:`decision_counts`): ``serial`` / ``sharded`` for the chosen
strategy and ``vetoed_single_core`` when the affinity veto forced the
answer.  :class:`~repro.engine.PreviewEngine` attributes deltas of
these counters to its queries (``cache_info()``'s ``plan_decisions``).

Planning never changes answers — the executor reduces by global subset
index, so every tiling picks the same winner — and every mode is
bit-identical to every other (``tests/test_plan.py`` and the golden
workload trace).  See ``docs/execution-planner.md``.
"""

from __future__ import annotations

import math
import os
import threading
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from .. import config
from ..exceptions import KernelError, PlanError

__all__ = [
    "DEFAULT_DISPATCH_THRESHOLD",
    "ENV_PLAN",
    "ENV_THRESHOLD",
    "PLAN_MODES",
    "decision_counts",
    "dispatch_threshold",
    "estimated_subsets",
    "plan_mode",
    "reset_plan_caches",
    "reset_plan_stats",
    "shard_layout",
    "should_shard",
    "usable_cpus",
    "use_mode",
]

#: Environment override for the sharding crossover point (declared in
#: :mod:`repro.config`; the name is kept here for subprocess spawners).
ENV_THRESHOLD = config.DISPATCH_THRESHOLD.name

#: Environment variable selecting the planner mode (declared in
#: :mod:`repro.config`).
ENV_PLAN = config.PLAN.name

#: Below this many subsets, process-pool dispatch costs more than the
#: serial kernel call it would replace (measured on the bench-mixed
#: workload trace; see docs/execution-planner.md).
DEFAULT_DISPATCH_THRESHOLD = 4096

#: The planner modes ``REPRO_PLAN`` accepts.
PLAN_MODES = ("auto", "serial", "sharded")

#: In-process mode override (managed by :func:`use_mode`); None defers
#: to the ``REPRO_PLAN`` environment knob.
_FORCED_MODE: Optional[str] = None

#: Cached affinity probe (``should_shard`` sits on the per-query hot
#: path).  Reset via :func:`reset_plan_caches`.
_CPU_CACHE: Optional[int] = None

#: Cached parsed dispatch threshold, keyed by the raw env value so a
#: test's ``monkeypatch.setenv`` is still observed without re-parsing
#: on every decision.
_THRESHOLD_CACHE: Optional[Tuple[Optional[str], int]] = None

#: Process-wide decision counters (serve hosts plan from several
#: worker threads, hence the lock).
_DECISIONS: Dict[str, int] = {
    "serial": 0,
    "sharded": 0,
    "vetoed_single_core": 0,
}
_DECISIONS_LOCK = threading.Lock()


def plan_mode() -> str:
    """The effective planner mode (in-process override, else ``REPRO_PLAN``).

    Raises
    ------
    PlanError
        When ``REPRO_PLAN`` names an unknown mode.
    """
    if _FORCED_MODE is not None:
        return _FORCED_MODE
    raw = (config.raw_knob(ENV_PLAN) or "auto").strip().lower() or "auto"
    if raw not in PLAN_MODES:
        raise PlanError(
            f"{ENV_PLAN} must be one of {', '.join(PLAN_MODES)}, got {raw!r}"
        )
    return raw


@contextmanager
def use_mode(mode: str):
    """Temporarily force a planner mode in-process (tests, bench legs).

    Raises
    ------
    PlanError
        For an unknown mode name.
    """
    global _FORCED_MODE
    if mode not in PLAN_MODES:
        raise PlanError(
            f"unknown planner mode {mode!r}; expected one of "
            f"{', '.join(PLAN_MODES)}"
        )
    previous = _FORCED_MODE
    _FORCED_MODE = mode
    try:
        yield
    finally:
        _FORCED_MODE = previous


def usable_cpus() -> int:
    """CPU cores this process may actually run on (cached per process).

    The affinity mask is a process property that practically never
    changes mid-run, so the probe happens once and
    :func:`reset_plan_caches` is the test-visible way to force a
    re-probe.
    """
    global _CPU_CACHE
    if _CPU_CACHE is None:
        try:
            _CPU_CACHE = len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux
            _CPU_CACHE = os.cpu_count() or 1
    return _CPU_CACHE


def dispatch_threshold() -> int:
    """The effective sharding threshold (env override or default).

    The parse is memoized against the raw environment value, so the
    hot path re-reads ``os.environ`` (tests that ``setenv`` stay
    honored) but only re-parses when the value actually changed.

    Raises
    ------
    KernelError
        When ``REPRO_DISPATCH_THRESHOLD`` is set but not a non-negative
        integer (the historical contract of the kernel planner).
    """
    global _THRESHOLD_CACHE
    raw = config.raw_knob(ENV_THRESHOLD)
    if _THRESHOLD_CACHE is not None and _THRESHOLD_CACHE[0] == raw:
        return _THRESHOLD_CACHE[1]
    if raw is None:
        value = DEFAULT_DISPATCH_THRESHOLD
    else:
        try:
            value = int(raw)
        except ValueError:
            raise KernelError(
                f"{ENV_THRESHOLD} must be an integer, got {raw!r}"
            ) from None
        if value < 0:
            raise KernelError(f"{ENV_THRESHOLD} must be >= 0, got {value}")
    _THRESHOLD_CACHE = (raw, value)
    return value


def reset_plan_caches() -> None:
    """Drop the cached affinity probe and parsed threshold (test hook)."""
    global _CPU_CACHE, _THRESHOLD_CACHE
    _CPU_CACHE = None
    _THRESHOLD_CACHE = None


def estimated_subsets(eligible_count: int, k: int) -> int:
    """Upper bound on the qualifying k-subset count: ``C(eligible, k)``."""
    if k < 0 or k > eligible_count:
        return 0
    return math.comb(eligible_count, k)


def _count(*keys: str) -> None:
    with _DECISIONS_LOCK:
        for key in keys:
            _DECISIONS[key] += 1


def should_shard(subset_count: int, jobs: int) -> bool:
    """Whether ``subset_count`` subsets justify ``jobs`` workers.

    The answer depends on the mode (see the module docstring); the
    result is recorded in the decision counters either way.  Serial
    and sharded execution are bit-identical, so this only moves wall
    time.
    """
    mode = plan_mode()
    if mode == "serial" or jobs <= 1 or subset_count <= 1:
        _count("serial")
        return False
    if mode == "auto":
        if usable_cpus() <= 1:
            _count("serial", "vetoed_single_core")
            return False
        if subset_count < dispatch_threshold():
            _count("serial")
            return False
    _count("sharded")
    return True


def shard_layout(subset_count: int, jobs: int) -> List[int]:
    """Shard sizes for one dispatch: ``min(jobs, n)`` near-equal chunks.

    The sizes sum to ``subset_count`` and the remainder lands on the
    first shards, so no shard is ever empty.
    """
    if subset_count <= 0:
        return []
    shards = min(max(1, jobs), subset_count)
    base, remainder = divmod(subset_count, shards)
    return [base + (1 if shard < remainder else 0) for shard in range(shards)]


def decision_counts() -> Dict[str, int]:
    """A copy of the process-wide cumulative decision counters."""
    with _DECISIONS_LOCK:
        return dict(_DECISIONS)


def reset_plan_stats() -> None:
    """Zero the process-wide decision counters (benchmark legs)."""
    with _DECISIONS_LOCK:
        for key in _DECISIONS:
            _DECISIONS[key] = 0
