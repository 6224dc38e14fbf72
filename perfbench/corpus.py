"""Inputs of the XMorph benchmark: corpus, guard mix, edit cycle, oracles.

Everything here is a pure function of the seed.  The program under test
only ever sees what these functions generate: XML text to parse and
store, guard texts to evaluate, and update batches to apply.
"""

from __future__ import annotations

import hashlib
import random
import time

from repro.engine.interpreter import Interpreter
from repro.storage.database import Database
from repro.storage.update import DeleteSubtree, InsertSubtree, ReplaceSubtree, reference_apply
from repro.workloads.dblp import generate_dblp
from repro.xmltree.node import XmlForest, element
from repro.xmltree.parser import parse_forest
from repro.xmltree.serializer import serialize

#: Corpus size and make-up: 800 dblp publications in the generator's
#: expected shares (45% article, 45% inproceedings, 10% phdthesis), about
#: 8.2k nodes and 280 store pages, so the whole store fits the default
#: 2048-page buffer pool.  The shares are fixed rather than drawn per
#: seed: left to the generator they ranged from 65 to 91 theses over
#: seeds 1-10, and the ``school`` guard's cost moved with them.
PUBLICATIONS = 800
KINDS = {"article": 360, "inproceedings": 360, "phdthesis": 80}
DOC = "dblp"

#: The guard mix.  The first three are the pipeline bench's defaults;
#: the rest compile over dblp and reach the other specialized plan forms:
#: the self-pair, a two-level general closest join, a TYPE-FILL
#: placeholder and a NEW wrapper around its leading child.  The median
#: request falls on the middle guard by cost (``title [ year [ author ] ]``,
#: about 20 ms warm), so the extra guards are chosen to make the middle of
#: the mix medium-sized requests: the median of a pooled mix is only as
#: steady as the guard it lands on, and a 5-10 ms request there moved
#: about twice as much from run to run as the throughput did.  An odd
#: count keeps the median inside one guard's latency band instead of on
#: the edge between two bands.
GUARDS = (
    "CAST MORPH author [ title [ year ] ]",
    "CAST MORPH dblp [ author [ title [ year [ pages ] url ] ] ]",
    "CAST MORPH (RESTRICT year [ ee ])",
    "CAST MORPH author [ author ]",
    "CAST MORPH title [ year [ author ] ]",
    "CAST (TYPE-FILL MORPH author [ title isbn ])",
    "CAST MORPH (NEW bib) [ school [ author ] ]",
)


def guard_rounds(seed: int, states: int = 1):
    """Endless rounds of the mix, seeded.

    A round holds each guard ``states`` times.  Step ``j`` of a round
    belongs to edit state ``j % states`` (the write workload applies the
    edit cycle's batches in turn), and every (state, guard) pair occurs
    exactly once per round, so the mix proportions are the same for every
    seed and every whole number of rounds.  Read-after-write latency
    depends on both the guard and the edit before it.
    """
    rng = random.Random(seed)
    while True:
        orders = [rng.sample(GUARDS, len(GUARDS)) for _ in range(states)]
        yield [orders[step % states][step // states] for step in range(len(GUARDS) * states)]


def corpus_text(seed: int) -> str:
    """The benchmark's input document: a seeded dblp slice as XML text.

    Draws twice the publications from the dblp generator, keeps the first
    ``KINDS[kind]`` of each kind and shuffles them with the seed, so every
    seed has the same make-up and different records in a different order.
    """
    generated = generate_dblp(2 * PUBLICATIONS, seed).roots[0].element_children()
    kept = []
    for kind, count in KINDS.items():
        records = [record for record in generated if record.name == kind][:count]
        if len(records) < count:
            raise ValueError(f"seed {seed}: the generator gave {len(records)} {kind} records")
        kept.extend(records)
    random.Random(seed).shuffle(kept)
    root = element("dblp")
    for record in kept:
        root.append(record.copy_subtree())
    return serialize(XmlForest([root]).renumber())


def store(path: str, seed: int) -> dict:
    """Set-up steps every workload shares, each timed.

    Generates the corpus, parses the XML text and shreds it into a new
    store at ``path``.  Returns the open writer handle, the text and the
    timings; the caller closes the handle.
    """
    started = time.perf_counter()
    text = corpus_text(seed)
    generated = time.perf_counter()
    forest = parse_forest(text)
    parsed = time.perf_counter()
    db = Database(path, durable=True)
    blocks_before = db.stats.blocks_out
    stored_at = time.perf_counter()
    descriptor = db.store_document(DOC, forest)
    finished = time.perf_counter()
    return {
        "db": db,
        "text": text,
        "nodes": descriptor["nodes"],
        "parse_s": parsed - generated,
        "store_s": finished - stored_at,
        "store_blocks": db.stats.blocks_out - blocks_before,
        "elapsed_s": finished - started,
    }


def digest(body: bytes) -> bytes:
    """What a response is checked by: the SHA-256 of its bytes."""
    return hashlib.sha256(body).digest()


def oracle_digests(forest, guards=GUARDS) -> dict[str, bytes]:
    """Digests of the bytes the in-memory interpreter produces per guard.

    The batch interpreter over an in-memory forest shares no storage,
    plan-cache or compiled-render code with the stored path, so a
    byte-for-byte match checks every layer a request crosses.  Keeping
    digests rather than the bytes keeps the oracles out of the run's
    resident set.
    """
    interpreter = Interpreter(forest, compile_renders=False)
    return {guard: digest(interpreter.transform(guard).xml().encode()) for guard in guards}


def read_oracles(seed: int) -> dict[str, bytes]:
    """Oracle digests for the set-up document."""
    return oracle_digests(parse_forest(corpus_text(seed)))


def write_oracles(seed: int) -> list[dict[str, bytes]]:
    """Oracle digests for the document after each batch of the edit cycle."""
    text = corpus_text(seed)
    return [oracle_digests(forest) for forest in EditCycle(text, seed).state_forests(text)]


#: Publications after the slot where a shape edit inserts its copy.  Each
#: of them is renumbered (shifted up by one sibling) by the insert and
#: back by the delete, so the sibling-shift path runs at a bounded cost.
SHIFTED = 3

#: The element children of the copied publication: two authors, an ``ee``
#: and no ``crossref``.  The cost of a shape edit depends on which type
#: sequences the copy touches, so every seed copies the same structure.
COPIED_SHAPE = ("author", "author", "title", "year", "booktitle", "pages", "url", "ee")


class EditCycle:
    """Four update batches that return the document to where it started.

    Half keep the shape (a title's text is replaced, then restored), half
    change it (a publication is inserted, then deleted), interleaved so
    every shape change is followed by a value edit:

    1. replace the target title's text           -> state A
    2. insert a copy of a publication             -> state A + P
       before the last ``SHIFTED`` publications
    3. restore the target title                   -> state P
    4. delete the inserted publication            -> the set-up document

    The seed picks the title, from the publications before the insert
    slot so that its address stays put, and the copied publication, an
    ``inproceedings`` of ``COPIED_SHAPE``.  Inserts go near the end: an
    insert in front of every publication renumbers about 8.2k nodes and
    took 8-11 s per edit at this size, which would swamp the loop.
    """

    def __init__(self, text: str, seed: int):
        forest = parse_forest(text)
        root = forest.roots[0]
        rng = random.Random(seed * 7919 + 1)
        publications = root.children
        position = len(publications) + 1 - SHIFTED
        target = publications[rng.randrange(position - 1)]
        title = next(child for child in target.children if child.name == "title")
        candidates = [
            pub for pub in publications
            if pub.name == "inproceedings"
            and tuple(child.name for child in pub.element_children()) == COPIED_SHAPE
        ]
        copied = rng.choice(candidates)
        title_ref = str(title.dewey)
        inserted_ref = f"{root.dewey}.{position}"
        self.batches = [
            [ReplaceSubtree(title_ref, element("title", text="edited " + title.text))],
            [InsertSubtree(str(root.dewey), copied.copy_subtree(), position)],
            [ReplaceSubtree(title_ref, element("title", text=title.text))],
            [DeleteSubtree(inserted_ref)],
        ]
        #: What each batch does to the shape, in batch order.
        self.kinds = ["value", "shape", "value", "shape"]

    def state_forests(self, text: str) -> list:
        """The in-memory document after each batch, by reference_apply."""
        states = []
        forest = parse_forest(text)
        for batch in self.batches:
            forest = reference_apply(forest, batch)
            states.append(XmlForest([root.copy_subtree() for root in forest.roots]).renumber())
        return states
