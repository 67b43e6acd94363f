"""The picklable scoring snapshot shipped to worker processes.

A :class:`ScoringSnapshot` is the smallest projection of a
:class:`~repro.scoring.CandidatePool` that still lets a worker run the
Theorem-3 merge: the ``TypeId -> type index`` map and the per-type flat
tuples of weighted merge scores ``S(τ) × Sτ(γ)``.  No entity graph,
schema graph or attribute objects cross the pipe — key subsets travel as
tuples of ``TypeId`` strings and scores as tuples of floats.

:class:`MappedScoringSnapshot` is the zero-copy variant: the weighted
rows live in one memory-mapped float64 scratch file and cross the pipe
as a path plus row lengths, so pickling costs bytes instead of
megabytes and every worker shares the parent's page cache.
:func:`make_snapshot` picks between the two per the ``REPRO_SNAPSHOT``
knob (:func:`repro.config.snapshot_transport`).
"""

from __future__ import annotations

import mmap
import os
import struct
import tempfile
import weakref
from dataclasses import dataclass
from typing import Dict, Iterable, Sequence, Tuple

from .. import config
from ..exceptions import ConfigError
from ..model.ids import TypeId
from ..scoring.candidate_pool import CandidatePool


@dataclass(frozen=True)
class ScoringSnapshot:
    """Flat, picklable view of one candidate pool's merge scores.

    The snapshot duck-types the exact :class:`CandidatePool` surface that
    :func:`~repro.core.candidates.build_allocation_profile` reads —
    ``index``, ``weighted`` and ``attrs`` — so workers execute the very
    allocation code the serial path executes and accumulate floats in the
    identical order.  ``attrs`` is aliased to the weighted rows: the
    allocation only tests it for per-type emptiness and never dereferences
    an attribute object, and the pool builds both rows from the same
    ranked list, so lengths and truthiness agree by construction.
    Materializing a :class:`~repro.core.preview.Preview` needs the real
    pool and stays in the parent process.
    """

    index: Dict[TypeId, int]
    weighted: Tuple[Tuple[float, ...], ...]

    @property
    def attrs(self) -> Tuple[Tuple[float, ...], ...]:
        """Emptiness-equivalent stand-in for ``CandidatePool.attrs``."""
        return self.weighted

    @classmethod
    def from_pool(cls, pool: CandidatePool) -> "ScoringSnapshot":
        """Project ``pool`` into a fresh snapshot (full re-projection).

        Returns a snapshot whose ``weighted`` rows alias the pool's
        immutable tuples — cheap to build, cheap to pickle.
        """
        return cls(index=dict(pool.index), weighted=pool.weighted)

    def refresh(
        self, pool: CandidatePool, dirty_types: Iterable[TypeId]
    ) -> "ScoringSnapshot":
        """A new snapshot with only the dirty types' rows re-projected.

        The delta-maintenance hook that keeps a long-lived
        :class:`~repro.parallel.ShardedExecutor` warm across mutations:
        instead of re-projecting (and later re-pickling) every row,
        untouched rows *share* their float tuples with this snapshot —
        only dirty-type payloads are taken from the patched ``pool``.
        Falls back to :meth:`from_pool` when the pool's type universe
        differs (a structural mutation rebuilt it from scratch).
        """
        if pool.index != self.index:
            return self.from_pool(pool)
        rows = list(self.weighted)
        changed = False
        for type_name in dirty_types:
            i = self.index.get(type_name)
            if i is None:  # unknown dirty type: universe changed after all
                return self.from_pool(pool)
            rows[i] = pool.weighted[i]
            changed = True
        if not changed:
            return self
        return ScoringSnapshot(index=self.index, weighted=tuple(rows))


def _row_bytes(row: Sequence[float]) -> bytes:
    """One weighted row as native-endian packed float64 (exact)."""
    return struct.pack(f"={len(row)}d", *row)


def _unlink_scratch(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:  # already gone (or never owned): nothing to free
        pass


class MappedScoringSnapshot:
    """A scoring snapshot whose rows are views over one mmap'd file.

    Duck-types the same :class:`CandidatePool` surface as
    :class:`ScoringSnapshot` (``index`` / ``weighted`` / ``attrs``), but
    each weighted row is a ``memoryview`` cast to float64 over a shared
    memory-mapped scratch file instead of a private tuple.  float64
    round-trips exactly through the file, and the kernel backends and
    :func:`~repro.core.candidates.build_allocation_profile` only read
    rows by index/slice/length, so scores stay bit-identical to the
    tuple-backed snapshot.

    Pickling (``__reduce__``) ships only ``(path, index, row lengths)``
    — a few hundred bytes however large the score arrays are — and the
    worker re-maps the same file, sharing the parent's page cache
    instead of receiving a copy over the pipe.

    The creating process owns the scratch file and unlinks it when the
    snapshot is garbage-collected (or :meth:`close` is called); workers
    open read-only and never unlink.
    """

    __slots__ = (
        "index",
        "weighted",
        "_path",
        "_lengths",
        "_offsets",
        "_mmap",
        "_writable",
        "_finalizer",
        "__weakref__",
    )

    def __init__(
        self,
        path: str,
        index: Dict[TypeId, int],
        lengths: Tuple[int, ...],
        writable: bool = False,
    ) -> None:
        self.index = index
        self._path = path
        self._lengths = tuple(lengths)
        self._writable = writable
        offsets = []
        position = 0
        for length in self._lengths:
            offsets.append(position)
            position += 8 * length
        self._offsets = tuple(offsets)
        fd = os.open(path, os.O_RDWR if writable else os.O_RDONLY)
        try:
            access = mmap.ACCESS_WRITE if writable else mmap.ACCESS_READ
            self._mmap = mmap.mmap(fd, 0, access=access)
        finally:
            os.close(fd)
        view = memoryview(self._mmap)
        self.weighted = tuple(
            view[offset:offset + 8 * length].cast("d")
            for offset, length in zip(self._offsets, self._lengths)
        )
        self._finalizer = weakref.finalize(
            self, _unlink_scratch, path
        ) if writable else None

    @property
    def attrs(self) -> Tuple["memoryview", ...]:
        """Emptiness-equivalent stand-in for ``CandidatePool.attrs``."""
        return self.weighted

    @classmethod
    def from_pool(cls, pool: CandidatePool) -> "MappedScoringSnapshot":
        """Project ``pool`` into a fresh mmap-backed snapshot.

        Raises
        ------
        OSError
            When the scratch file cannot be created or written
            (:func:`make_snapshot` turns this into a fallback or a
            :class:`~repro.exceptions.ConfigError` per the knob).
        """
        fd, path = tempfile.mkstemp(prefix="repro-snapshot-", suffix=".f64")
        try:
            with os.fdopen(fd, "wb") as handle:
                total = 0
                for row in pool.weighted:
                    handle.write(_row_bytes(row))
                    total += 8 * len(row)
                if total == 0:  # mmap rejects empty files
                    handle.write(b"\x00" * 8)
            return cls(
                path,
                dict(pool.index),
                tuple(len(row) for row in pool.weighted),
                writable=True,
            )
        except BaseException:
            _unlink_scratch(path)
            raise

    def refresh(
        self, pool: CandidatePool, dirty_types: Iterable[TypeId]
    ) -> "MappedScoringSnapshot":
        """This snapshot with only the dirty types' rows re-projected.

        Same-shape dirty rows are patched *in place* in the mapped file
        (dispatches are synchronous, so no worker is mid-read), keeping
        the object identity stable across mutations.  A changed type universe
        or a row that changed length rebuilds from scratch via
        :func:`make_snapshot`.
        """
        if pool.index != self.index:
            return make_snapshot(pool)
        updates = []
        for type_name in dirty_types:
            i = self.index.get(type_name)
            if i is None:  # unknown dirty type: universe changed after all
                return make_snapshot(pool)
            row = pool.weighted[i]
            if len(row) != self._lengths[i]:
                return make_snapshot(pool)
            updates.append((i, row))
        if not updates:
            return self
        for i, row in updates:
            start = self._offsets[i]
            self._mmap[start:start + 8 * len(row)] = _row_bytes(row)
        return self

    def close(self) -> None:
        """Unlink the scratch file now (owner only; idempotent)."""
        if self._finalizer is not None:
            self._finalizer()

    def __reduce__(self):
        return (
            MappedScoringSnapshot,
            (self._path, self.index, self._lengths, False),
        )


def make_snapshot(pool: CandidatePool):
    """A worker-pool snapshot of ``pool`` per the ``REPRO_SNAPSHOT`` knob.

    ``mmap`` and ``auto`` build a :class:`MappedScoringSnapshot`;
    ``pickle`` (and ``auto`` when the scratch file cannot be created)
    builds a plain :class:`ScoringSnapshot`.  Both duck-type the same
    pool surface and produce bit-identical scores.

    Raises
    ------
    ConfigError
        When the transport is forced to ``mmap`` and the scratch file
        cannot be created, or the knob names an unknown transport.
    """
    transport = config.snapshot_transport()
    if transport == "pickle":
        return ScoringSnapshot.from_pool(pool)
    try:
        return MappedScoringSnapshot.from_pool(pool)
    except OSError as exc:
        if transport == "mmap":
            raise ConfigError(
                f"{config.SNAPSHOT.name}=mmap but the mapped snapshot "
                f"could not be created: {exc}"
            ) from exc
        return ScoringSnapshot.from_pool(pool)
