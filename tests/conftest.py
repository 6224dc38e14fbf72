"""Shared fixtures: the paper's running bibliography example.

Figure 1 of the paper shows three XML instances holding "the same data"
about books, authors and publishers, arranged in three different shapes:

* **(a)** book-centric: ``data/book/{title, author/name, publisher/name}``
* **(b)** publisher-centric: ``data/publisher/{name, book/{title, author/name}}``
* **(c)** normalized/author-centric: ``data/author/{name, book/{title,
  publisher/name}}`` with books grouped under one author element.

The concrete values reconstruct the paper's Section VII rendering
example: in instance (a) the first ``<title>`` is node 1.1.1, the first
``<author>`` 1.1.2, its ``<name>`` 1.1.2.1 and the first ``<publisher>``
1.1.3 — exactly the Dewey numbers quoted in the paper.  Both books are
by the same author name "A" so instance (c) groups them under a single
``<author>`` (the paper: instance (c)'s transform "differs, but only in
the grouping of authors by name").
"""

import os

import pytest
from hypothesis import settings

from repro.xmltree import parse_document

#: ``HYPOTHESIS_PROFILE=deep`` runs the parity property suites (those
#: whose settings go through :func:`examples`) with about 1,500 examples
#: each; CI runs them so.  Without it every suite keeps its own budget.
settings.register_profile("deep", max_examples=1500)
DEEP = os.environ.get("HYPOTHESIS_PROFILE") == "deep"
if DEEP:
    settings.load_profile("deep")


def examples(default: int) -> int:
    """A property suite's ``max_examples``: ``default``, or the deep profile's."""
    return settings.get_profile("deep").max_examples if DEEP else default

FIG1A = """
<data>
  <book>
    <title>X</title>
    <author><name>A</name></author>
    <publisher><name>W</name></publisher>
  </book>
  <book>
    <title>Y</title>
    <author><name>A</name></author>
    <publisher><name>V</name></publisher>
  </book>
</data>
"""

FIG1B = """
<data>
  <publisher>
    <name>W</name>
    <book>
      <title>X</title>
      <author><name>A</name></author>
    </book>
  </publisher>
  <publisher>
    <name>V</name>
    <book>
      <title>Y</title>
      <author><name>A</name></author>
    </book>
  </publisher>
</data>
"""

FIG1C = """
<data>
  <author>
    <name>A</name>
    <book>
      <title>X</title>
      <publisher><name>W</name></publisher>
    </book>
    <book>
      <title>Y</title>
      <publisher><name>V</name></publisher>
    </book>
  </author>
</data>
"""

# A richer variant used by cardinality / information-loss tests: the
# second author has no <name> (the paper's Section V example of an
# optional name making ``MUTATE name [ author ]`` non-inclusive).
FIG1A_OPTIONAL_NAME = """
<data>
  <book>
    <title>X</title>
    <author><name>A</name></author>
    <publisher><name>W</name></publisher>
  </book>
  <book>
    <title>Y</title>
    <author/>
    <publisher><name>V</name></publisher>
  </book>
</data>
"""


@pytest.fixture
def fig1a():
    return parse_document(FIG1A)


@pytest.fixture
def fig1b():
    return parse_document(FIG1B)


@pytest.fixture
def fig1c():
    return parse_document(FIG1C)


@pytest.fixture
def fig1a_optional_name():
    return parse_document(FIG1A_OPTIONAL_NAME)


@pytest.fixture
def fig1_all(fig1a, fig1b, fig1c):
    return {"a": fig1a, "b": fig1b, "c": fig1c}
