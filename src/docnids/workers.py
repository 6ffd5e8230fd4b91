"""Worker processes on the other usable cores: the one module that forks,
for ``data.save_csv``, ``data.read_chunks`` and ``svdd.train``.

A worker sends frames: the byte length of a pickle, then the pickle. Only
a whole frame is used, a worker that sends one result must also exit 0,
and for anything else the caller computes the value itself, so what it
gets never depends on the workers. Nothing forks without ``os.fork``.
"""

from __future__ import annotations

import itertools
import os
import pickle
import signal
import struct
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import BinaryIO

# A frame's head: the byte length of the pickle that follows it.
_HEAD = struct.Struct("<q")


@dataclass
class Worker:
    pid: int
    pipe: BinaryIO  # the read end
    code: int | None = None  # the exit code, once reaped


def usable_cores() -> int:
    getaffinity = getattr(os, "sched_getaffinity", None)
    return len(getaffinity(0)) if getaffinity else os.cpu_count() or 1


def _write(fd: int, frame: bytes) -> None:
    view = memoryview(frame)
    while view:
        view = view[os.write(fd, view):]


def _send(fd: int, value) -> None:
    payload = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
    _write(fd, _HEAD.pack(len(payload)) + payload)


def start(work: Callable[[Callable], None]) -> Worker | None:
    """Fork a worker that calls ``work(send)`` and leaves through
    ``os._exit``, with code 0 if ``work`` returned and 1 if it raised, so
    it never flushes or cleans up what it shares with this process.
    Return it, or None where no worker can be started."""
    try:
        r, w = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except (AttributeError, OSError):  # no os.fork on this platform, or no process to be had
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(r)
            work(lambda value: _send(w, value))
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return Worker(pid, open(r, "rb"))


def receive(worker: Worker):
    """The value of the worker's next frame, or None unless it is whole."""
    head = worker.pipe.read(_HEAD.size)
    if len(head) < _HEAD.size:
        return None
    (size,) = _HEAD.unpack(head)
    payload = worker.pipe.read(size)
    return pickle.loads(payload) if len(payload) == size else None


def _reap(worker: Worker) -> None:
    worker.code = os.waitstatus_to_exitcode(os.waitpid(worker.pid, 0)[1])


def result(worker: Worker):
    """The one value a worker sent, or None unless its frame is whole and
    it then exited 0. The worker is reaped."""
    value = receive(worker)
    worker.pipe.close()
    _reap(worker)
    return value if worker.code == 0 else None


def stop(started: list[Worker | None]) -> None:
    """Close the read end of every worker in ``started``, kill (SIGKILL)
    and reap each one not yet reaped, so that none is waited for, even
    one blocked on a full pipe, and empty the list."""
    for worker in filter(None, started):
        worker.pipe.close()
        if worker.code is None:
            os.kill(worker.pid, signal.SIGKILL)
            _reap(worker)
    started.clear()


def ranges(n: int, work: Callable[[int, int], object]) -> Iterator:
    """Yield ``work(a, b)``, never None, for the contiguous ranges [a, b)
    that cut range(n) into min(usable cores, n) parts, in order.

    A worker computes each range after the first meanwhile; this process
    computes the first, which the rounded-up cuts make the largest (on two
    cores, that trained ``evaluate``'s 5-member fold stack faster than the
    other way round), and each range whose worker is not trusted. Closing
    the generator stops the workers of the ranges not yet yielded."""
    parts = max(1, min(usable_cores(), n))
    cuts = [(n * i + parts - 1) // parts for i in range(parts + 1)]
    spans = list(itertools.pairwise(cuts))
    started = [start(lambda send, a=a, b=b: send(work(a, b))) for a, b in spans[1:]]
    try:
        for (a, b), worker in zip(spans, [None, *started]):
            value = None if worker is None else result(worker)
            yield work(a, b) if value is None else value
    finally:
        stop(started)
