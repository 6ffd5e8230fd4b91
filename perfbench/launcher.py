"""Starts the benchmark's child processes and measures each one.

Peak RSS from wait4 is not only the child's own: Linux carries the
high-water mark of the process that forked it across fork or vfork and
exec. The benchmark's own process grows to hundreds of MB while it checks
110k-row outputs, so it starts this small process first, before it
imports numpy, and every timed command is spawned from here.

Protocol: one JSON request per line on stdin,
{"argv": [...], "cwd": ..., "env": {...}, "stdout": path, "stderr": path};
one JSON reply per line on stdout,
{"returncode": int, "wall_s": float, "cpu_s": float, "peak_rss_mb": float}.
The process exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time

DRAIN_BYTES = 64 * 1024


def run(req: dict) -> dict:
    """Run one child to completion, draining its stdout to a file in 64 KiB
    reads. Wall time runs from spawn to exit; CPU time and peak RSS are
    this child's own, from wait4 on its pid."""
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                stdout=subprocess.PIPE, stderr=err)
        try:
            fd = proc.stdout.fileno()
            while chunk := os.read(fd, DRAIN_BYTES):
                out.write(chunk)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            proc.stdout.close()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return {
        "returncode": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    }


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
