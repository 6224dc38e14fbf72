"""The XMorph data shredder (Figure 8, left).

Shredding takes an XML document and writes the four tables: one Nodes
record per vertex, the document's adorned shape, and the per-type
sequence tables the render algorithm scans.  This is a one-time cost —
the paper reports it separately (20–115 s for the XMark factors) and
excludes it from the transformation timings, as do our benchmarks.
"""

from __future__ import annotations

from repro.cache import shape_fingerprint
from repro.obs import tracer as obs
from repro.shape.dataguide import DataGuideBuilder
from repro.storage.btree import BPlusTree
from repro.storage import tables
from repro.storage.tables import NodeRecord
from repro.xmltree.node import XmlForest


def shred(tree: BPlusTree, doc_id: int, name: str, forest: XmlForest) -> dict:
    """Write a forest's tables; returns the catalog descriptor.

    Every record goes into one batch (:meth:`BPlusTree.write_batch`),
    so each touched page is decoded and encoded once.  The catalog
    entry, which records how long that took, follows as one ``put``.
    """
    with obs.span("storage.shred", document=name) as shred_span:
        builder = DataGuideBuilder().build(forest)

        batch: list[tuple[bytes, bytes]] = []
        by_type: dict[int, list[NodeRecord]] = {}
        node_count = 0
        text_bytes = 0
        with obs.span("storage.shred.nodes"):
            for node in forest.iter_nodes():
                data_type = builder.type_of[id(node)]
                text_bytes += len(node.text)
                inline, overflow = tables.text_entries(batch, doc_id, node.dewey, node.text)
                record = NodeRecord(node.dewey, data_type.type_id, node.kind, inline, overflow)
                batch.append(
                    (tables.node_key(doc_id, node.dewey), tables.encode_node_value(record))
                )
                by_type.setdefault(data_type.type_id, []).append(record)
                node_count += 1
        tree.pool.stats.charge_cpu(node_count * 4)

        with obs.span("storage.shred.sequences"):
            for type_id, records in by_type.items():
                for chunk_no, chunk in enumerate(tables.pack_sequence(records)):
                    batch.append((tables.sequence_key(doc_id, type_id, chunk_no), chunk))
                # GroupedSequence: the same nodes keyed for per-parent grouping.
                # For root-path types document order already groups children
                # under their parent, so the payload is the (parent, node) pair
                # stream in that order.
                grouped = _pack_grouped(records)
                for chunk_no, chunk in enumerate(grouped):
                    batch.append((tables.grouped_key(doc_id, type_id, chunk_no), chunk))

        shape_descriptor = _shape_descriptor(builder)
        for chunk_no, chunk in enumerate(tables.encode_shape(shape_descriptor)):
            batch.append((tables.shape_key(doc_id, chunk_no), chunk))
        with obs.span("storage.shred.write", entries=len(batch)):
            tree.write_batch(batch)

        obs.count("shred.nodes", node_count)
        obs.count("shred.text_bytes", text_bytes)
        shred_span.annotate(nodes=node_count, text_bytes=text_bytes)

    descriptor = {
        "doc_id": doc_id,
        "name": name,
        "nodes": node_count,
        "text_bytes": text_bytes,
        "shape": shape_descriptor,
        # Keys the plan cache: documents with identical adorned shapes
        # hash identically (the descriptor is pure lists/str-keyed
        # dicts, so the hash survives the JSON round-trip to storage).
        "shape_fingerprint": shape_fingerprint(shape_descriptor),
        "shred_seconds": shred_span.duration,
    }
    catalog = dict(descriptor)
    del catalog["shape"]  # the shape lives in its own (chunked) records
    tree.put(tables.catalog_key(name), tables.encode_shape(catalog)[0])
    return descriptor


def _shape_descriptor(builder: DataGuideBuilder) -> dict:
    types = [[t.type_id, list(t.path)] for t in builder.type_table]
    edges = []
    for edge in builder.shape.edges():
        edges.append(
            [
                edge.parent.source.type_id,
                edge.child.source.type_id,
                edge.card.lo,
                edge.card.hi,
            ]
        )
    # Canonical edge order: sorted by (parent id, child id).  Traversal
    # order would encode *how* the descriptor was produced; sorting makes
    # a full re-shred and an incremental update (repro.storage.update)
    # emit byte-identical descriptors — and therefore fingerprints — for
    # the same document.
    edges.sort()
    tally: dict[int, int] = {}
    for data_type in builder.type_table:
        tally[data_type.type_id] = 0
    for type_ in builder.type_of.values():
        tally[type_.type_id] += 1
    counts = {str(type_id): count for type_id, count in tally.items()}
    return {"types": types, "edges": edges, "counts": counts}


def _pack_grouped(records: list[NodeRecord]) -> list[bytes]:
    """Pack (parent dewey, node dewey) pairs for the GroupedSequence table."""
    import struct

    chunks: list[bytes] = []
    buffer = bytearray()
    for record in records:
        parent = record.dewey.parent
        parent_bytes = tables.encode_dewey(parent) if parent is not None else b""
        own_bytes = tables.encode_dewey(record.dewey)
        entry = (
            struct.pack("<BB", len(parent_bytes), len(own_bytes))
            + parent_bytes
            + own_bytes
        )
        if buffer and len(buffer) + len(entry) > tables.CHUNK_BYTES:
            chunks.append(bytes(buffer))
            buffer = bytearray()
        buffer += entry
    if buffer:
        chunks.append(bytes(buffer))
    return chunks
