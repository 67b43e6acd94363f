"""Optional numpy backend — vectorized batch scoring.

Imported only when selected (``REPRO_KERNEL=numpy`` or ``auto`` with
numpy installed); the module import itself fails cleanly when numpy is
absent, and :mod:`repro.kernel` turns that into a
:class:`~repro.exceptions.KernelError`.

Lowering pads the per-type weighted rows into one ``(K, W)`` float64
rectangle with a row-length validity vector; per extra budget a
``(K, cap)`` strictly-positive tail rectangle is cached.  A batch of
``B`` k-subsets becomes a ``(B, k)`` index matrix — resolved once per
call with ``np.fromiter`` over C-level iterators, the dominant python
cost at batch sizes in the hundreds of thousands.  Scoring gathers the
top-1 column and the tail rectangles, keeps the ``cap`` largest tail
values per subset via ``np.partition``, and accumulates *column by
column* — never ``np.sum`` over the reduction axis, whose pairwise
summation would break bit-identity with the sequential oracle.  Sorted
equal floats commute exactly and zero padding adds ``+0.0`` to
non-negative partial sums, so every score matches the heap merge bit
for bit.  Gather temporaries are bounded by processing
:data:`~repro.kernel.base.BATCH_SIZE` rows at a time.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..exceptions import UnknownTypeError
from .base import BATCH_SIZE, KernelBackend


class NumpyColumns:
    """Rectangular lowering used by :class:`NumpyBackend`."""

    __slots__ = ("index", "rect", "lengths", "_tails")

    def __init__(
        self,
        index: Dict[object, int],
        weighted: Tuple[Tuple[float, ...], ...],
    ) -> None:
        self.index = index
        width = max((len(row) for row in weighted), default=0)
        rect = np.zeros((len(weighted), max(width, 1)), dtype=np.float64)
        for i, row in enumerate(weighted):
            if row:
                rect[i, : len(row)] = row
        self.rect = rect
        self.lengths = np.array([len(row) for row in weighted], dtype=np.intp)
        self._tails: Dict[int, np.ndarray] = {}

    def tails(self, cap: int) -> np.ndarray:
        """``(K, cap)`` strictly-positive merge tails, zero-padded."""
        cached = self._tails.get(cap)
        if cached is None:
            body = self.rect[:, 1 : cap + 1]
            if body.shape[1] < cap:
                pad = np.zeros(
                    (body.shape[0], cap - body.shape[1]), dtype=np.float64
                )
                body = np.concatenate([body, pad], axis=1)
            # np.where, not np.maximum: keeps padding an exact +0.0 and
            # drops every non-positive value like the merge's early stop.
            cached = np.where(body > 0.0, body, 0.0)
            self._tails[cap] = cached
        return cached


class NumpyBackend(KernelBackend):
    """Vectorized batched scoring over :class:`NumpyColumns`."""

    name = "numpy"

    def lower(self, source) -> NumpyColumns:
        """Lower source columns to padded numpy rectangles."""
        return NumpyColumns(source.index, source.weighted)

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def _resolve(self, columns: NumpyColumns, subsets, k: int) -> np.ndarray:
        """``(len(subsets), k)`` row-index matrix for uniform-arity subsets."""
        try:
            flat = np.fromiter(
                map(columns.index.__getitem__, chain.from_iterable(subsets)),
                dtype=np.intp,
                count=len(subsets) * k,
            )
        except KeyError as exc:
            raise UnknownTypeError(exc.args[0]) from None
        return flat.reshape(len(subsets), k)

    def _uniform_scores(
        self, columns: NumpyColumns, idx: np.ndarray, extra_cap: int
    ) -> np.ndarray:
        """Scores for one ``(B, k)`` index chunk; ``-inf`` = infeasible."""
        count, k = idx.shape
        feasible = (columns.lengths[idx] > 0).all(axis=1)
        if k > 1:
            ordered = np.sort(idx, axis=1)
            feasible &= (ordered[:, 1:] != ordered[:, :-1]).all(axis=1)
        acc = np.zeros(count, dtype=np.float64)
        first = columns.rect[:, 0]
        for j in range(k):
            acc += first[idx[:, j]]
        if extra_cap > 0 and k > 0:
            tails = columns.tails(extra_cap)
            if k == 1:
                merged = tails[idx[:, 0]]
                # Rows are already descending: accumulate left to right.
                for j in range(merged.shape[1]):
                    acc += merged[:, j]
            else:
                flat_width = k * extra_cap
                merged = tails[idx].reshape(count, flat_width)
                if flat_width > extra_cap:
                    merged = np.partition(
                        merged, flat_width - extra_cap, axis=1
                    )[:, flat_width - extra_cap :]
                merged = np.sort(merged, axis=1)
                # Ascending sort, so accumulate right to left to match
                # the merge's descending pop order.
                for j in range(merged.shape[1] - 1, -1, -1):
                    acc += merged[:, j]
        return np.where(feasible, acc, -np.inf)

    def _scores_array(
        self, columns: NumpyColumns, subsets, extra_cap: int
    ) -> np.ndarray:
        """One score per subset (``-inf`` = infeasible), original order."""
        total = len(subsets)
        arities = np.fromiter(map(len, subsets), dtype=np.intp, count=total)
        scores = np.empty(total, dtype=np.float64)
        if arities.min() == arities.max():
            idx = self._resolve(columns, subsets, int(arities[0]))
            for start in range(0, total, BATCH_SIZE):
                scores[start : start + BATCH_SIZE] = self._uniform_scores(
                    columns, idx[start : start + BATCH_SIZE], extra_cap
                )
            return scores
        # Rare mixed-arity batch: vectorize per arity, scatter back.
        by_len: Dict[int, List[int]] = {}
        for position, keys in enumerate(subsets):
            by_len.setdefault(len(keys), []).append(position)
        for k, positions in by_len.items():
            idx = self._resolve(
                columns, [subsets[position] for position in positions], k
            )
            group = np.empty(len(positions), dtype=np.float64)
            for start in range(0, len(positions), BATCH_SIZE):
                group[start : start + BATCH_SIZE] = self._uniform_scores(
                    columns, idx[start : start + BATCH_SIZE], extra_cap
                )
            scores[np.array(positions, dtype=np.intp)] = group
        return scores

    # ------------------------------------------------------------------
    # KernelBackend surface
    # ------------------------------------------------------------------
    def best_allocation(self, columns, subsets, extra_cap):
        """Vectorized best-allocation over the whole batch."""
        if not subsets:
            return None
        scores = self._scores_array(columns, subsets, extra_cap)
        # argmax keeps the first occurrence of the maximum: the winner is
        # the lowest-index subset among equal scores, matching the serial
        # strict-``>`` loops.
        position = int(np.argmax(scores))
        score = float(scores[position])
        if score == float("-inf"):
            return None
        return score, position

    def batch_scores(self, columns, subsets, extra_cap):
        """Vectorized scores for every subset in the batch."""
        if not subsets:
            return []
        scores = self._scores_array(columns, subsets, extra_cap)
        infeasible = np.isneginf(scores)
        return [
            None if dead else value
            for value, dead in zip(scores.tolist(), infeasible.tolist())
        ]
