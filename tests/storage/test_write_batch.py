"""Batched B+tree writes: ``BPlusTree.write_batch`` against simple models.

``write_batch`` is the tree's only write path (``put`` and ``delete``
are one-entry batches), so it is checked three ways: bulk loads into an
empty tree, a Hypothesis differential test against a dict model over
random pre-populated trees, and record parity between a batched
``store_document`` and a put-by-put reference shred.
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.obs.metrics import MetricsRegistry
from repro.shape.dataguide import DataGuideBuilder
from repro.storage import Database, tables
from repro.storage.btree import MAX_ENTRY, BPlusTree
from repro.storage.fsck import fsck
from repro.storage.pages import BufferPool, PagedFile
from repro.storage.shredder import _pack_grouped, _shape_descriptor
from repro.storage.stats import SystemStats
from repro.storage.tables import NodeRecord
from repro.workloads import generate_dblp, generate_xmark


def fresh_tree(tmp_path, name="bulk.db"):
    file = PagedFile(str(tmp_path / name), SystemStats())
    return BPlusTree(BufferPool(file, capacity=64)), file


class TestBulkLoad:
    """Batching into an empty tree is a bulk load."""

    def test_roundtrip(self, tmp_path):
        tree, file = fresh_tree(tmp_path)
        items = [(f"k{i:05d}".encode(), f"v{i}".encode()) for i in range(3000)]
        tree.write_batch(items)
        assert tree.count() == 3000
        assert tree.get(b"k01234") == b"v1234"
        assert dict(tree.scan()) == dict(items)
        assert tree.check() == []
        file.close()

    def test_empty_input(self, tmp_path):
        tree, file = fresh_tree(tmp_path)
        pages = file.page_count
        assert tree.write_batch([]) == 0
        assert tree.count() == 0
        assert tree.get(b"x") is None
        assert file.page_count == pages
        file.close()

    def test_single_entry(self, tmp_path):
        tree, file = fresh_tree(tmp_path)
        tree.write_batch([(b"only", b"one")])
        assert tree.get(b"only") == b"one"
        file.close()

    def test_writable_afterwards(self, tmp_path):
        tree, file = fresh_tree(tmp_path)
        items = [(f"k{i:04d}".encode(), b"v") for i in range(500)]
        tree.write_batch(items)
        tree.put(b"k0250x", b"inserted")
        tree.put(b"a-first", b"prepended")
        assert tree.get(b"k0250x") == b"inserted"
        assert tree.get(b"a-first") == b"prepended"
        keys = [k for k, _ in tree.scan()]
        assert keys == sorted(keys)
        assert tree.check() == []
        file.close()

    def test_persists_across_reopen(self, tmp_path):
        tree, file = fresh_tree(tmp_path)
        tree.write_batch([(b"k", b"v")])
        tree.pool.flush()
        file.close()
        file = PagedFile(str(tmp_path / "bulk.db"), SystemStats())
        again = BPlusTree(BufferPool(file))
        assert again.get(b"k") == b"v"
        file.close()

    def test_unsorted_input_is_sorted(self, tmp_path):
        items = [(f"k{i:04d}".encode(), f"v{i}".encode()) for i in range(400)]
        tree_a, file_a = fresh_tree(tmp_path, "a.db")
        tree_a.write_batch(items)
        tree_b, file_b = fresh_tree(tmp_path, "b.db")
        tree_b.write_batch(reversed(items))
        assert list(tree_b.scan()) == list(tree_a.scan())
        assert tree_b.check() == []
        file_a.close()
        file_b.close()

    def test_duplicate_keys_last_wins(self, tmp_path):
        tree, file = fresh_tree(tmp_path)
        tree.write_batch([(b"a", b"first"), (b"b", b"x"), (b"a", b"second")])
        assert list(tree.scan()) == [(b"a", b"second"), (b"b", b"x")]
        file.close()

    def test_batch_into_used_file(self, tmp_path):
        tree, file = fresh_tree(tmp_path)
        for i in range(0, 600, 2):
            tree.put(f"k{i:04d}".encode(), b"even")
        tree.write_batch([(f"k{i:04d}".encode(), b"odd") for i in range(1, 600, 2)])
        assert tree.count() == 600
        assert tree.get(b"k0301") == b"odd"
        assert tree.get(b"k0300") == b"even"
        assert tree.check() == []
        file.close()

    def test_large_values_pack_few_per_page(self, tmp_path):
        tree, file = fresh_tree(tmp_path)
        blob = b"x" * 3000
        items = [(f"k{i:03d}".encode(), blob) for i in range(40)]
        tree.write_batch(items)
        assert all(tree.get(k) == blob for k, _ in items)
        assert tree.check() == []
        file.close()

    def test_every_page_written_once(self, tmp_path):
        tree, file = fresh_tree(tmp_path)
        metrics = MetricsRegistry()
        tree.pool.stats.metrics = metrics
        pages = file.page_count
        tree.write_batch([(f"k{i:05d}".encode(), b"v" * 20) for i in range(3000)])
        allocated = file.page_count - pages
        assert allocated > 20
        # Each new page once, plus the rewritten root leaf it started from.
        assert metrics.counter("btree.node_encodes") == allocated + 1
        assert metrics.counter("btree.node_decodes") == 1
        file.close()

    @settings(max_examples=25, deadline=None)
    @given(st.dictionaries(st.binary(min_size=1, max_size=16), st.binary(max_size=64), max_size=200))
    def test_matches_put_loop(self, tmp_path_factory, mapping):
        tmp = tmp_path_factory.mktemp("bl")
        items = sorted(mapping.items())

        bulk, file_a = fresh_tree(tmp, "a.db")
        bulk.write_batch(items)

        loop, file_b = fresh_tree(tmp, "b.db")
        for key, value in items:
            loop.put(key, value)

        assert list(bulk.scan()) == list(loop.scan())
        file_a.close()
        file_b.close()


# -- differential test against a dict model -----------------------------------

_keys = st.one_of(st.binary(min_size=1, max_size=2), st.binary(min_size=1, max_size=12))
#: Small values, mid-size ones, and ones near MAX_ENTRY: a leaf merging
#: several of those splits into more than two pages at once.
_sizes = st.one_of(
    st.integers(0, 40), st.integers(300, 1200), st.integers(MAX_ENTRY - 400, MAX_ENTRY - 12)
)
_values = st.builds(lambda byte, size: bytes([byte]) * size, st.integers(0, 255), _sizes)
_entries = st.tuples(_keys, st.one_of(st.none(), _values))
_batch = st.lists(_entries, max_size=80).map(lambda batch: sorted(batch, key=lambda e: e[0]))

_BIG = MAX_ENTRY - 20


def _apply(model: dict, batch) -> int:
    """Apply a batch to the model; returns the stored keys it deleted."""
    removed = 0
    for key, value in dict(batch).items():  # the last entry per key wins
        if value is None:
            removed += model.pop(key, None) is not None
        else:
            model[key] = value
    return removed


class TestAgainstModel:
    @settings(max_examples=60, deadline=None)
    @given(
        initial=st.lists(st.tuples(_keys, _values), max_size=150),
        batches=st.lists(_batch, max_size=6),
    )
    # An empty batch on an empty tree, and one on a populated tree.
    @example(initial=[], batches=[[]])
    @example(initial=[(b"a", b"1"), (b"b", b"2")], batches=[[]])
    # A put and a delete of one key in one batch: the later entry wins.
    @example(initial=[(b"k", b"old")], batches=[[(b"k", None), (b"k", b"new")]])
    @example(initial=[(b"k", b"old")], batches=[[(b"k", b"new"), (b"k", None)]])
    # Near-MAX_ENTRY values into one leaf: a multi-way split, then a
    # root split from a single batch.
    @example(
        initial=[],
        batches=[[(bytes([i]), bytes([i]) * _BIG) for i in range(1, 12)]],
    )
    # A batch spanning many leaves of a populated tree.
    @example(
        initial=[(bytes([i, j]), b"v" * 300) for i in range(1, 40) for j in (0, 128)],
        batches=[[(bytes([i, 64]), None if i % 3 else b"w" * 900) for i in range(1, 40)]],
    )
    def test_batches_match_dict_model(self, tmp_path_factory, initial, batches):
        tmp = tmp_path_factory.mktemp("wb")
        file = PagedFile(str(tmp / "m.db"), SystemStats())
        tree = BPlusTree(BufferPool(file, capacity=16))
        model: dict[bytes, bytes] = {}
        try:
            # Pre-populate put by put so the tree's shape comes from the
            # one-entry path, not from the batches under test.
            for key, value in initial:
                tree.put(key, value)
                model[key] = value
            for batch in batches:
                removed = tree.write_batch(batch)
                assert removed == _apply(model, batch)
                assert list(tree.scan()) == sorted(model.items())
                assert tree.check() == []
            for key, value in model.items():
                assert tree.get(key) == value
        finally:
            file.close()

    def test_oversized_entry_rejected_before_any_write(self, tmp_path):
        tree, file = fresh_tree(tmp_path)
        tree.put(b"keep", b"v")
        with pytest.raises(StorageError):
            tree.write_batch([(b"a", b"v"), (b"b", b"x" * MAX_ENTRY)])
        assert list(tree.scan()) == [(b"keep", b"v")]
        file.close()

    def test_no_op_entries_rewrite_nothing(self, tmp_path):
        tree, file = fresh_tree(tmp_path)
        tree.write_batch([(f"k{i:03d}".encode(), b"v") for i in range(300)])
        metrics = MetricsRegistry()
        tree.pool.stats.metrics = metrics
        # Deletes of absent keys and puts of the bytes already stored.
        no_ops = [(b"k0005x", None), (b"k007", b"v"), (b"k290", b"v"), (b"zzz", None)]
        assert tree.write_batch(no_ops) == 0
        assert metrics.counter("btree.node_encodes") == 0
        tree.write_batch(no_ops + [(b"k290", b"changed")])
        assert metrics.counter("btree.node_encodes") == 1
        assert tree.get(b"k290") == b"changed"
        file.close()


# -- store_document: record parity and write counters ------------------------


def _reference_shred(tree: BPlusTree, doc_id: int, name: str, forest) -> None:
    """The shredder's records, written one ``put`` at a time."""
    builder = DataGuideBuilder().build(forest)
    by_type: dict[int, list[NodeRecord]] = {}
    nodes = text_bytes = 0
    for node in forest.iter_nodes():
        type_id = builder.type_of[id(node)].type_id
        raw = node.text.encode()
        inline, chunks = node.text, 0
        if len(raw) > tables.INLINE_TEXT:
            pieces = [
                raw[i : i + tables.CHUNK_BYTES]
                for i in range(0, len(raw), tables.CHUNK_BYTES)
            ]
            for number, piece in enumerate(pieces):
                tree.put(tables.overflow_key(doc_id, node.dewey, number), piece)
            inline, chunks = "", len(pieces)
        record = NodeRecord(node.dewey, type_id, node.kind, inline, chunks)
        tree.put(tables.node_key(doc_id, node.dewey), tables.encode_node_value(record))
        by_type.setdefault(type_id, []).append(record)
        nodes += 1
        text_bytes += len(node.text)
    for type_id, records in by_type.items():
        for number, chunk in enumerate(tables.pack_sequence(records)):
            tree.put(tables.sequence_key(doc_id, type_id, number), chunk)
        for number, chunk in enumerate(_pack_grouped(records)):
            tree.put(tables.grouped_key(doc_id, type_id, number), chunk)
    shape = _shape_descriptor(builder)
    for number, chunk in enumerate(tables.encode_shape(shape)):
        tree.put(tables.shape_key(doc_id, number), chunk)
    catalog = {"doc_id": doc_id, "name": name, "nodes": nodes, "text_bytes": text_bytes}
    tree.put(tables.catalog_key(name), json.dumps(catalog).encode())


def _records(tree: BPlusTree) -> list[tuple[bytes, object]]:
    """Every entry; catalog values reduced to the fields both sides write."""
    out = []
    for key, value in tree.scan():
        if key.startswith(b"D"):
            catalog = json.loads(value)
            value = {field: catalog[field] for field in ("doc_id", "name", "nodes", "text_bytes")}
        out.append((key, value))
    return out


@pytest.mark.parametrize(
    "forest_of",
    [lambda: generate_dblp(60, seed=7), lambda: generate_xmark(0.002, seed=7)],
    ids=["dblp", "xmark"],
)
def test_store_document_matches_put_by_put_shred(tmp_path, forest_of):
    forest = forest_of()
    path = str(tmp_path / "batched.db")
    with Database(path, durable=False) as db:
        db.store_document("doc", forest)
        batched = _records(db.tree)
    assert fsck(path).ok

    tree, file = fresh_tree(tmp_path, "reference.db")
    tree.put(tables.META_KEY, (1).to_bytes(4, "big"))
    _reference_shred(tree, 0, "doc", forest)
    reference = _records(tree)
    assert tree.check() == []
    file.close()

    assert [key for key, _ in batched] == [key for key, _ in reference]
    assert batched == reference


def test_store_encodes_each_page_about_once(tmp_path):
    with Database(str(tmp_path / "c.db"), durable=False) as db:
        metrics = MetricsRegistry()
        db.stats.metrics = metrics
        pages = db._file.page_count
        descriptor = db.store_document("doc", generate_dblp(60, seed=7))
        allocated = db._file.page_count - pages
        encodes = metrics.counter("btree.node_encodes")
        splits = metrics.counter("btree.splits")
    assert allocated > 5
    # One encode per page the shred batch touches; the two besides are
    # the one-entry puts of the document-id counter and the catalog.
    assert encodes <= allocated + splits + 2
    # Put by put it was about two per record.
    assert encodes < descriptor["nodes"] / 20
    assert metrics.counter("btree.node_decodes") <= 8
