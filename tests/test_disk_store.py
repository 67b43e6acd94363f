"""The persistent binary graph store (repro.store.disk).

Two properties carry the module:

* **round-trip bit-identity** — a reopened graph preserves insertion
  order, first-seen type order and the header fingerprint, so scorers
  cannot tell it from the source graph;
* **loud corruption** — every damaged-file shape raises
  ``DiskStoreError`` (mirroring the snapshot corruption suite in
  ``tests/test_replicate.py``), never a wrong answer: one flipped or
  missing byte anywhere in the file never yields a graph.
"""

from __future__ import annotations

import gc
import json
import os
import struct
import subprocess
import sys

import pytest

from repro.cli import main
from repro.datasets import generate_domain
from repro.datasets.loader import (
    graph_fingerprint,
    load_domain_file,
    save_domain,
)
from repro.exceptions import DiskStoreError, StoreError
from repro.store import STORE_EXTENSION, build_store, open_store
from repro.store.disk import (
    _DIGEST_OFFSET,
    _HEADER,
    SECTION_NAMES,
    VERSION,
    _file_digest,
)

import importlib.util
from pathlib import Path

# Loaded by path: plain ``from conftest import ...`` would collide with
# benchmarks/conftest.py when the whole repo is collected in one run.
_conftest_spec = importlib.util.spec_from_file_location(
    "_disk_store_test_fixtures", Path(__file__).with_name("conftest.py")
)
_conftest = importlib.util.module_from_spec(_conftest_spec)
_conftest_spec.loader.exec_module(_conftest)
build_fig1_graph = _conftest.build_fig1_graph

_HEADER_PREFIX = _DIGEST_OFFSET - 72  # the 72-byte fingerprint field
_SECTION_TABLE = _HEADER.size  # section table offset


@pytest.fixture()
def fig1_store(tmp_path):
    path = tmp_path / f"fig1{STORE_EXTENSION}"
    build_store(build_fig1_graph(), path)
    return path


@pytest.fixture(scope="module")
def domain_pair(tmp_path_factory):
    """A generated domain graph and its store file, built once."""
    graph = generate_domain("architecture", scale=300, seed=11)
    path = tmp_path_factory.mktemp("store") / f"arch{STORE_EXTENSION}"
    build_store(graph, path)
    return graph, path


# ----------------------------------------------------------------------
# Round trip
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_build_returns_file_size(self, tmp_path):
        path = tmp_path / f"g{STORE_EXTENSION}"
        written = build_store(build_fig1_graph(), path)
        assert written == path.stat().st_size

    def test_orders_and_fingerprint_survive(self, domain_pair):
        graph, path = domain_pair
        with open_store(path) as store:
            clone = store.entity_graph()
        assert clone.name == graph.name
        assert list(clone.entities()) == list(graph.entities())
        assert clone.entity_types() == graph.entity_types()
        assert list(clone.relationships()) == list(graph.relationships())
        assert clone.generation == graph.generation
        assert graph_fingerprint(clone) == graph_fingerprint(graph)

    def test_types_of_every_entity_survive(self, domain_pair):
        graph, path = domain_pair
        with open_store(path) as store:
            clone = store.entity_graph()
        for entity in graph.entities():
            assert clone.types_of(entity) == graph.types_of(entity)

    def test_header_is_o1_and_matches_graph(self, domain_pair):
        graph, path = domain_pair
        with open_store(path) as store:
            assert store.name == graph.name
            assert store.generation == graph.generation
            assert store.fingerprint == graph_fingerprint(graph)
            assert store.entity_count == len(list(graph.entities()))
            assert store.type_count == len(graph.entity_types())
            counts = store.describe()["counts"]
            assert counts["relationships"] == len(list(graph.relationships()))

    def test_loader_round_trip_via_extension(self, tmp_path):
        graph = build_fig1_graph()
        path = tmp_path / f"fig1{STORE_EXTENSION}"
        save_domain(graph, path)
        clone = load_domain_file(path)
        assert clone.name == "fig1"  # stored name wins over the default
        assert graph_fingerprint(clone) == graph_fingerprint(graph)

    def test_mutations_continue_from_stored_generation(self, fig1_store):
        """A reopened graph accepts mutations with agreeing generations.

        The mutation-op payload digests include the post-mutation
        generation, so a store-opened graph must count from the stored
        generation — not from zero — for replays to agree.
        """
        source = build_fig1_graph()
        with open_store(fig1_store) as store:
            clone = store.entity_graph()
        source.add_entity("NEW ONE", ["FILM"])
        clone.add_entity("NEW ONE", ["FILM"])
        assert clone.generation == source.generation
        assert graph_fingerprint(clone) == graph_fingerprint(source)


    def test_materialized_neighbours_share_the_entity_keys(self, tmp_path):
        """Each entity name is decoded once and reused by every edge.

        Per-row decoding would give every adjacency entry its own copy
        of the string — equal, so only identity catches it (~30 MB at
        music scale).
        """
        path = tmp_path / f"film{STORE_EXTENSION}"
        build_store(generate_domain("film", scale=1000, seed=0), path)
        with open_store(path) as store:
            graph = store.entity_graph()
        keys = {entity: entity for entity in graph.entities()}
        checked = 0
        for rel in graph.relationship_types():
            for entity in graph.entities_of_type(rel.source_type):
                for target in graph.targets(entity, rel):
                    assert target is keys[target]
                    checked += 1
            for entity in graph.entities_of_type(rel.target_type):
                for source in graph.sources(entity, rel):
                    assert source is keys[source]
        for source, target, _rel in graph.relationships():
            assert source is keys[source] and target is keys[target]
        assert checked == graph.edge_count

    def test_materialized_graph_starts_with_an_empty_delta_window(self, domain_pair):
        _graph, path = domain_pair
        with open_store(path) as store:
            clone = store.entity_graph()
        assert clone.mutation_log.horizon == clone.generation == store.generation
        assert len(clone.mutation_log) == 0


# A reader maps the file it opened; rebuilding that path must swap in a
# new file, not rewrite the mapped one (which kills the reader with
# SIGBUS), so this runs in a child process the signal cannot take down
# with the test runner.
_REBUILD_UNDER_READER = """
import sys
from repro.datasets import generate_domain
from repro.store import build_store, open_store
path = sys.argv[1]
build_store(generate_domain("film", scale=2000, seed=0), path)
reader = open_store(path)
build_store(generate_domain("architecture", scale=2000, seed=0), path)
graph = reader.entity_graph(verify=True)
with open_store(path) as fresh:
    print(graph.name, fresh.name)
"""


class TestAtomicBuild:
    def test_open_reader_survives_a_rebuild(self, tmp_path):
        path = tmp_path / f"live{STORE_EXTENSION}"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath(src), env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-c", _REBUILD_UNDER_READER, str(path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, (done.returncode, done.stderr[-2000:])
        assert done.stdout.split() == ["film", "architecture"]

    def test_rebuild_leaves_no_temporary_files(self, tmp_path):
        path = tmp_path / f"g{STORE_EXTENSION}"
        build_store(build_fig1_graph(), path)
        build_store(build_fig1_graph(), path)
        assert sorted(os.listdir(tmp_path)) == [path.name]

    def test_unwritable_target_raises_and_cleans_up(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()  # os.replace cannot swap a file over a directory
        with pytest.raises(DiskStoreError, match="cannot write"):
            build_store(build_fig1_graph(), target)
        assert os.listdir(tmp_path) == ["taken"]
        with pytest.raises(DiskStoreError, match="cannot write"):
            build_store(build_fig1_graph(), tmp_path / "missing" / "g.rgs")


# ----------------------------------------------------------------------
# Corruption (every shape raises DiskStoreError)
# ----------------------------------------------------------------------
def _rewrite(path, mutate):
    data = bytearray(path.read_bytes())
    mutate(data)
    path.write_bytes(bytes(data))


def _reseal(data):
    """Re-stamp the file digest over ``data``, as a drifted encoder would.

    Damage that keeps the digest consistent gets past the byte check and
    reaches the decoding and fingerprint checks behind it.
    """
    data[_DIGEST_OFFSET:_HEADER.size] = _file_digest(
        (data[:_DIGEST_OFFSET], data[_HEADER.size:])
    )


def _set_header_field(data, index, value):
    fields = list(_HEADER.unpack_from(data, 0))
    fields[index] = value
    _HEADER.pack_into(data, 0, *fields)


def _materializes(path):
    """Whether ``path`` opens and materializes without a DiskStoreError."""
    try:
        with open_store(path) as store:
            store.entity_graph()
    except DiskStoreError:
        return False
    return True


def _truncate_half(data):
    del data[len(data) // 2:]


def _truncate_header(data):
    del data[100:]


def _bad_magic(data):
    data[0:8] = b"NOTSTORE"


def _bad_version(data):
    struct.pack_into("<I", data, 8, VERSION + 41)


def _oversized(data):
    data.extend(b"\x00" * 64)


def _garbage_fingerprint(data):
    data[_HEADER_PREFIX:_HEADER_PREFIX + 72] = b"md5:garbage".ljust(72, b"\x00")


def _dangling_section(data):
    # Point the relationships section past the end of the file.
    entry = _SECTION_TABLE + SECTION_NAMES.index("relationships") * 16
    struct.pack_into("<QQ", data, entry, len(data), 4096)


def _short_section(data):
    # Shrink the entity_ids section below what entity_count implies.
    entry = _SECTION_TABLE + SECTION_NAMES.index("entity_ids") * 16
    offset, length = struct.unpack_from("<QQ", data, entry)
    struct.pack_into("<QQ", data, entry, offset, max(0, length - 8))


class TestCorruption:
    @pytest.mark.parametrize(
        "corrupt",
        [
            _truncate_half,
            _truncate_header,
            _bad_magic,
            _bad_version,
            _oversized,
            _garbage_fingerprint,
            _dangling_section,
            _short_section,
        ],
        ids=lambda f: f.__name__.lstrip("_"),
    )
    def test_damaged_headers_fail_to_open(self, fig1_store, corrupt):
        _rewrite(fig1_store, corrupt)
        with pytest.raises(DiskStoreError):
            open_store(fig1_store)

    def test_garbage_fingerprint_message_quotes_the_field(self, fig1_store):
        _rewrite(fig1_store, _garbage_fingerprint)
        with pytest.raises(DiskStoreError) as info:
            open_store(fig1_store)
        assert str(info.value).endswith("field b'md5:garbage'")

    def test_empty_and_missing_files_raise(self, tmp_path):
        empty = tmp_path / f"empty{STORE_EXTENSION}"
        empty.write_bytes(b"")
        with pytest.raises(DiskStoreError, match="empty"):
            open_store(empty)
        with pytest.raises(DiskStoreError, match="cannot open"):
            open_store(tmp_path / f"missing{STORE_EXTENSION}")

    def test_fingerprint_mismatch_is_rejected(self, fig1_store):
        """A valid-format but wrong fingerprint fails at materialization."""

        def flip_fingerprint(data):
            digest = bytes(
                data[_HEADER_PREFIX:_HEADER_PREFIX + 72]
            ).rstrip(b"\x00").decode("ascii")
            hex_part = digest[len("sha256:"):]
            flipped = ("0" if hex_part[0] != "0" else "1") + hex_part[1:]
            data[_HEADER_PREFIX:_HEADER_PREFIX + 72] = (
                f"sha256:{flipped}".encode("ascii").ljust(72, b"\x00")
            )
            _reseal(data)

        _rewrite(fig1_store, flip_fingerprint)
        with open_store(fig1_store) as store:
            with pytest.raises(DiskStoreError, match="fingerprint mismatch"):
                store.entity_graph()

    def test_materialization_error_propagates_through_close(self, fig1_store):
        """An error raised inside ``entity_graph`` leaves the ``with``
        block as itself, not as a failure to unmap the file."""
        _rewrite(fig1_store, lambda data: _set_header_field(data, 4, 0))
        with pytest.raises(DiskStoreError, match="stored generation 0"):
            with open_store(fig1_store) as store:
                store.entity_graph(verify=False)

    def test_dangling_dictionary_offset_is_rejected(self, fig1_store):
        """A dictionary offset past the blob raises, never misreads."""

        def dangle(data):
            # dict_offsets is the first section after the header table;
            # bump the second cumulative offset past any possible blob.
            entry = _SECTION_TABLE + SECTION_NAMES.index("dict_offsets") * 16
            offset, _length = struct.unpack_from("<QQ", data, entry)
            struct.pack_into("<Q", data, offset + 8, 1 << 40)

        _rewrite(fig1_store, dangle)
        with open_store(fig1_store) as store:
            with pytest.raises(DiskStoreError, match="dangling dictionary"):
                store.string(0)

    def test_out_of_range_string_id_raises(self, fig1_store):
        with open_store(fig1_store) as store:
            with pytest.raises(DiskStoreError, match="outside the"):
                store.string(10_000_000)

    @pytest.mark.parametrize("collector_on", [True, False])
    def test_schema_violation_mid_load_is_a_store_error(
        self, fig1_store, collector_on
    ):
        """A relationship row whose type contradicts its endpoints fails
        the bulk replay loudly and leaves the collector as it was."""
        graph = build_fig1_graph()
        rels = list(graph.relationships())
        reltypes = graph.relationship_types()
        row = len(rels) // 2
        source = rels[row][0]
        wrong = next(
            rank for rank, rel in enumerate(reltypes)
            if rel.source_type not in graph.types_of(source)
        )

        def retype(data):
            entry = _SECTION_TABLE + SECTION_NAMES.index("relationships") * 16
            offset, _length = struct.unpack_from("<QQ", data, entry)
            struct.pack_into("<Q", data, offset + (3 * row + 1) * 8, wrong)
            _reseal(data)

        _rewrite(fig1_store, retype)
        if not collector_on:
            gc.disable()
        try:
            with open_store(fig1_store) as store:
                with pytest.raises(DiskStoreError, match="violates the data model"):
                    store.entity_graph()
            assert gc.isenabled() is collector_on
        finally:
            gc.enable()

    def test_disk_store_error_is_a_store_error(self):
        assert issubclass(DiskStoreError, StoreError)

    def test_version_1_store_is_rejected(self, fig1_store):
        """A store from before the file digest fails with a typed error."""
        _rewrite(fig1_store, lambda data: _set_header_field(data, 1, 1))
        with pytest.raises(DiskStoreError, match="unsupported store version 1 "):
            open_store(fig1_store)

    def test_reordered_relationships_are_rejected(self, fig1_store):
        """Swapped relationship rows keep the order-blind fingerprint but
        would change the materialized relationship order."""

        def swap_first_two(data):
            entry = _SECTION_TABLE + SECTION_NAMES.index("relationships") * 16
            offset, _length = struct.unpack_from("<QQ", data, entry)
            first, second = data[offset:offset + 24], data[offset + 24:offset + 48]
            assert first != second
            data[offset:offset + 48] = second + first

        _rewrite(fig1_store, swap_first_two)
        with open_store(fig1_store) as store:
            with pytest.raises(DiskStoreError, match="digest mismatch"):
                store.entity_graph()

    def test_changed_generation_is_rejected(self, fig1_store):
        """The generation is outside the fingerprint, so only the file
        digest catches a changed one."""
        with open_store(fig1_store) as store:
            generation = store.generation
        _rewrite(
            fig1_store, lambda data: _set_header_field(data, 4, generation + 1000)
        )
        with open_store(fig1_store) as store:
            assert store.generation == generation + 1000
            with pytest.raises(DiskStoreError, match="digest mismatch"):
                store.entity_graph()


class TestEveryByte:
    """No single damaged or missing byte yields a graph."""

    def test_every_flipped_byte_is_rejected(self, fig1_store, tmp_path):
        original = fig1_store.read_bytes()
        damaged = tmp_path / f"damaged{STORE_EXTENSION}"
        accepted = []
        for offset in range(len(original)):
            data = bytearray(original)
            data[offset] ^= 0xFF
            damaged.write_bytes(bytes(data))
            if _materializes(damaged):
                accepted.append(offset)
        assert accepted == []

    def test_every_truncation_is_rejected(self, fig1_store, tmp_path):
        original = fig1_store.read_bytes()
        damaged = tmp_path / f"damaged{STORE_EXTENSION}"
        accepted = []
        for size in range(len(original)):
            damaged.write_bytes(original[:size])
            if _materializes(damaged):
                accepted.append(size)
        assert accepted == []
        assert _materializes(fig1_store)


# ----------------------------------------------------------------------
# CLI: repro-preview dataset build / info, --file .rgs
# ----------------------------------------------------------------------
class TestDatasetCli:
    def test_build_and_info(self, tmp_path, capsys):
        out = tmp_path / f"arch{STORE_EXTENSION}"
        code = main([
            "dataset", "build", "--domain", "architecture",
            "--scale", "300", "--seed", "11", "--out", str(out),
        ])
        assert code == 0
        assert "fingerprint sha256:" in capsys.readouterr().out
        code = main(["dataset", "info", str(out), "--verify"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["name"] == "architecture"
        assert summary["verified"] is True
        assert summary["counts"]["entities"] > 0
        assert set(summary["sections"]) == set(SECTION_NAMES)

    def test_info_on_damaged_store_errors_cleanly(self, tmp_path, capsys):
        path = tmp_path / f"bad{STORE_EXTENSION}"
        path.write_bytes(b"NOTSTORE" + b"\x00" * 500)
        code = main(["dataset", "info", str(path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_build_rejects_wrong_extension(self, tmp_path, capsys):
        code = main([
            "dataset", "build", "--domain", "film",
            "--out", str(tmp_path / "store.bin"),
        ])
        assert code == 1
        assert STORE_EXTENSION in capsys.readouterr().err

    def test_query_cli_accepts_store_file(self, tmp_path, capsys):
        store_path = tmp_path / f"q{STORE_EXTENSION}"
        build_store(generate_domain("film", scale=600, seed=0), store_path)
        code = main([
            "--file", str(store_path), "--tables", "2", "--attrs", "4",
        ])
        assert code == 0
        assert "preview: k=2 n=4" in capsys.readouterr().out
