import errno
import os
import time
import warnings

import numpy as np
import pytest

from docnids import workers

from test_data import assert_reaped, count_forks, needs_fork, usable_cores


def cut_frames(monkeypatch, keep):
    """Make every frame a worker writes stop after ``keep(head size)`` bytes."""
    write = workers._write
    monkeypatch.setattr(
        workers, "_write", lambda fd, frame: write(fd, frame[: keep(workers._HEAD.size)])
    )


@needs_fork
class TestStart:
    def test_a_whole_frame_is_returned(self):
        value = {"rows": np.arange(6.0).reshape(2, 3), "name": "x"}
        worker = workers.start(lambda send: send(value))
        got = workers.result(worker)
        assert got["name"] == "x" and np.array_equal(got["rows"], value["rows"])
        assert worker.code == 0
        assert_reaped([worker.pid])

    def test_frames_arrive_in_order_then_none(self):
        worker = workers.start(lambda send: [send(i) for i in range(3)])
        assert [workers.receive(worker) for _ in range(4)] == [0, 1, 2, None]
        workers.stop([worker])
        assert_reaped([worker.pid])

    @pytest.mark.parametrize(
        "keep", [lambda head: head // 2, lambda head: head + 3], ids=["short_head", "short_body"]
    )
    def test_a_short_frame_gives_none(self, monkeypatch, keep):
        cut_frames(monkeypatch, keep)
        worker = workers.start(lambda send: send(b"x" * 100))
        assert workers.receive(worker) is None
        workers.stop([worker])
        assert_reaped([worker.pid])

    def test_a_whole_frame_then_exit_1_is_not_used(self):
        def work(send):
            send("a whole frame")
            raise RuntimeError("worker fails")

        worker = workers.start(work)
        assert workers.result(worker) is None
        assert worker.code == 1

    def test_stop_kills_a_worker_blocked_on_a_full_pipe(self):
        # far more than a pipe holds, so the worker blocks in its write
        worker = workers.start(lambda send: send(b"x" * (1 << 24)))
        time.sleep(0.2)
        start = time.perf_counter()
        workers.stop([worker])
        assert time.perf_counter() - start < 5.0
        assert worker.code == -9
        assert_reaped([worker.pid])

    def test_stop_empties_the_list_and_skips_the_reaped(self, monkeypatch):
        done, failed = workers.start(lambda send: send(1)), None
        assert workers.result(done) == 1
        killed = []
        monkeypatch.setattr(os, "kill", lambda pid, sig: killed.append(pid))
        started = [done, failed]
        workers.stop(started)
        assert started == [] and killed == []

    def test_a_failed_fork_gives_none_and_closes_the_pipe(self, monkeypatch):
        real_pipe, fds = os.pipe, []

        def pipe():
            fds.extend(real_pipe())
            return fds[-2:]

        monkeypatch.setattr(os, "pipe", pipe)
        pids = count_forks(monkeypatch, fail_from=0)
        assert workers.start(lambda send: send(1)) is None
        assert pids == [] and len(fds) == 2
        for fd in fds:
            with pytest.raises(OSError) as e:
                os.fstat(fd)
            assert e.value.errno == errno.EBADF

    def test_no_fork_gives_none(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert workers.start(lambda send: send(1)) is None

    def test_a_worker_flushes_none_of_the_parent_buffers(self, tmp_path):
        path = tmp_path / "out.txt"
        with open(path, "w") as f:
            f.write("x")
            worker = workers.start(lambda send: send(1))
            assert workers.result(worker) == 1
        assert path.read_text() == "x"


class TestUsableCores:
    def test_affinity_counts(self, monkeypatch):
        usable_cores(monkeypatch, 3)
        assert workers.usable_cores() == 3

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert workers.usable_cores() == 1


@needs_fork
class TestRanges:
    @pytest.mark.parametrize(
        "n, cores, spans",
        [
            (5, 2, [(0, 3), (3, 5)]),
            (7, 3, [(0, 3), (3, 5), (5, 7)]),
            (6, 3, [(0, 2), (2, 4), (4, 6)]),
            (2, 8, [(0, 1), (1, 2)]),
            (4, 1, [(0, 4)]),
            (0, 2, [(0, 0)]),
        ],
    )
    def test_rounded_up_cuts_in_order(self, monkeypatch, n, cores, spans):
        here = os.getpid()
        usable_cores(monkeypatch, cores)
        pids = count_forks(monkeypatch)
        got = list(workers.ranges(n, lambda a, b: (a, b, os.getpid() == here)))
        # the first range is computed here, each other one in its worker
        assert got == [(a, b, i == 0) for i, (a, b) in enumerate(spans)]
        assert len(pids) == len(spans) - 1
        assert_reaped(pids)

    def test_an_untrusted_range_is_computed_here(self, monkeypatch):
        here = os.getpid()

        def work(a, b):
            if os.getpid() != here and a == 1:
                raise RuntimeError("worker fails")
            return a, os.getpid() == here

        usable_cores(monkeypatch, 3)
        pids = count_forks(monkeypatch)
        assert list(workers.ranges(3, work)) == [(0, True), (1, True), (2, False)]
        assert_reaped(pids)

    def test_closing_early_stops_the_later_workers(self, monkeypatch):
        here = os.getpid()

        def work(a, b):
            if os.getpid() != here:
                time.sleep(60)
            return a

        usable_cores(monkeypatch, 3)
        pids = count_forks(monkeypatch)
        start = time.perf_counter()
        results = workers.ranges(3, work)
        assert next(results) == 0
        results.close()
        assert time.perf_counter() - start < 5.0
        assert len(pids) == 2
        assert_reaped(pids)

    def test_forking_warns_of_nothing(self, monkeypatch):
        # as TestSaveCsvParts.test_forking_warns_of_nothing
        usable_cores(monkeypatch, 2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert list(workers.ranges(2, lambda a, b: a)) == [0, 1]
        assert [str(w.message) for w in caught] == []
