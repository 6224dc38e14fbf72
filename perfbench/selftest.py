#!/usr/bin/env python3
"""Self-test: the benchmark's oracles catch wrong output.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py

Three short runs with one set-up each:

1. ``query-hot`` with intact oracles must pass;
2. ``query-hot`` with one guard's oracle bytes altered must count a
   failure for every request of that guard and report ``correct: false``;
3. ``write`` with the last applied batch dropped from its log must fail
   the write oracle (stored document against ``reference_apply``).

Exits 0 when every check behaves as stated, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from corpus import DOC, GUARDS, digest  # noqa: E402

SECONDS = 1.5


def workload(kind, tag: str):
    workdir = tempfile.mkdtemp(prefix=f"selftest-{tag}-", dir=work_root())
    return kind(seed=3, workdir=workdir)


def work_root() -> str:
    path = os.path.join(run.ROOT, ".perfbench-work")
    os.makedirs(path, exist_ok=True)
    return path


def finish(bench) -> None:
    try:
        bench.finish()
    finally:
        bench.tear_down()
        shutil.rmtree(bench.workdir, ignore_errors=True)


def main() -> int:
    run.SETUPS = 1
    problems = []

    intact = workload(run.QueryHot, "intact")
    intact.prepare_oracles()
    intact.set_up_all()
    intact.measure(SECONDS, trace=False)
    finish(intact)
    if not intact.correct or intact.failed:
        problems.append(f"intact oracle reported failures: {intact.failures}")

    corrupted = workload(run.QueryHot, "corrupted")
    corrupted.prepare_oracles()
    corrupted.set_up_all()
    # The oracle expects the right response with one byte changed.
    victim = GUARDS[0]
    good = corrupted.db.transform(DOC, victim).xml().encode()
    corrupted.oracle[victim] = digest(good[:-2] + bytes([good[-2] ^ 1]) + good[-1:])
    corrupted.measure(SECONDS, trace=False)
    finish(corrupted)
    rounds = corrupted.attempted // len(GUARDS)
    if corrupted.correct or corrupted.failed < rounds:
        problems.append(
            f"corrupted read oracle not caught: {corrupted.failed} failures "
            f"in {corrupted.attempted} requests"
        )

    write = workload(run.Write, "write")
    write.prepare_oracles()
    write.set_up_all()
    write.measure(SECONDS, trace=False)
    if not write.applied:
        problems.append("write self-test applied no batch")
    else:
        # Every batch changes the document, so the log without its last
        # batch describes a different document than the store holds.
        del write.applied[-1]
    finish(write)
    if write.correct:
        problems.append("write oracle did not catch a dropped batch")

    shutil.rmtree(work_root(), ignore_errors=True)
    for problem in problems:
        print("SELFTEST FAILED: " + problem)
    if not problems:
        print(
            f"selftest ok: intact {intact.attempted} requests passed; corrupted oracle "
            f"caught {corrupted.failed} of {corrupted.attempted}; dropped batch caught"
        )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
