"""Serve counters add up: every request resolves, and is counted, once.

Whatever route a request takes — pooled, inline, refused for a spent
budget, abandoned by a consumer that stopped waiting — once the pool
drains, ``serve.requests == serve.completed + serve.errors`` and
``serve.errors`` equals the sum of its per-code ``serve.errors.*``.  A
worker's result that arrives after its consumer gave up is dropped
without being counted.  Both modes, via ``transform_many`` and via
``serve_loop``.
"""

import io
import json
import os
import signal
import sys
import threading

import pytest

from repro.errors import TransformTimeoutError
from repro.serve import TransformPool, serve_loop
from repro.storage import Database

GUARD = "MORPH author [ name ]"

#: Large enough that a process pool sends GUARD across the pipe and
#: that a 0.5 ms budget runs out in either mode.
BULK = "<data>" + "".join(
    f"<book><title>T{i}</title><author><name>A{i % 7}</name></author></book>"
    for i in range(40)
) + "</data>"


@pytest.fixture
def reader(tmp_path):
    path = str(tmp_path / "c.db")
    with Database(path, durable=False) as db:
        db.store_document("doc", BULK)
    db = Database(path, mode="r", durable=False)
    yield db
    db.close()


def serve_counters(db) -> dict:
    return {
        name.removeprefix("serve."): count
        for name, count in db.stats.events.items()
        if name.startswith("serve.")
    }


def assert_counters_add_up(db) -> dict:
    counters = serve_counters(db)
    errors = counters.get("errors", 0)
    assert counters["requests"] == counters.get("completed", 0) + errors, counters
    assert errors == sum(
        count for name, count in counters.items() if name.startswith("errors.")
    ), counters
    assert counters.get("timeouts", 0) == counters.get("errors.XM540", 0), counters
    return counters


@pytest.mark.parametrize("mode", ["thread", "process"])
class TestTimeoutCounters:
    def test_transform_many_timeout(self, reader, mode):
        with TransformPool(reader, workers=2, mode=mode) as pool:
            with pytest.raises(TransformTimeoutError):
                pool.transform_many([("doc", GUARD)] * 4, deadline=0.0005)
        counters = assert_counters_add_up(reader)
        assert counters["requests"] == 4
        assert counters["timeouts"] >= 1

    def test_serve_loop_timeout(self, reader, mode):
        lines = "".join(
            json.dumps({"id": i, "doc": "doc", "guard": GUARD}) + "\n" for i in range(6)
        )
        out = io.StringIO()
        stats = serve_loop(
            reader, io.StringIO(lines), out, workers=2, deadline=0.0005, pool_mode=mode
        )
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        failed = [r for r in responses if not r["ok"]]
        assert failed and all(r["code"] == "XM540" for r in failed)
        counters = assert_counters_add_up(reader)
        assert counters["requests"] == 6
        assert counters["errors"] == stats.errors == len(failed)


class TestLateResultsDropped:
    def test_thread_worker_finishing_late_is_not_completed(self, reader):
        gate = threading.Event()
        real = reader.transform

        def slow(name, guard):
            gate.wait(timeout=30)
            return real(name, guard)

        reader.transform = slow
        try:
            with TransformPool(reader, workers=2) as pool:
                with pytest.raises(TransformTimeoutError):
                    pool.transform_many([("doc", GUARD)], deadline=0.05)
                gate.set()  # the abandoned worker now finishes, too late
        finally:
            gate.set()
        counters = assert_counters_add_up(reader)
        assert "completed" not in counters
        assert counters["errors.XM540"] == 1

    def test_process_worker_answering_late_is_not_completed(self, reader):
        with TransformPool(reader, workers=1, mode="process") as pool:
            pool.transform_many([("doc", GUARD)])
            pid = pool._handles[0].process.pid
            os.kill(pid, signal.SIGSTOP)
            try:
                with pytest.raises(TransformTimeoutError):
                    pool.transform_many([("doc", GUARD)], deadline=0.3)
            finally:
                os.kill(pid, signal.SIGCONT)
            pool.transform_many([("doc", GUARD)], deadline=30)
        counters = assert_counters_add_up(reader)
        assert counters["completed"] == 2
        assert counters["errors.XM540"] == 1


class TestCountersUnderContention:
    def test_racing_timeouts_and_completions_add_up(self, reader):
        """Consumers abandon requests while dispatchers resolve them."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with TransformPool(reader, workers=8) as pool:
                futures = [pool.submit("doc", GUARD, deadline=0.002) for _ in range(32)]
                outcomes = []
                for future in futures:
                    try:
                        outcomes.append(pool.result(future))
                    except TransformTimeoutError:
                        outcomes.append(None)
        finally:
            sys.setswitchinterval(interval)
        counters = assert_counters_add_up(reader)
        assert counters["requests"] == 32
        assert counters.get("completed", 0) == sum(o is not None for o in outcomes)
