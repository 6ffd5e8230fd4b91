#!/usr/bin/env python3
"""End-to-end benchmark of the docnids command line.

Each workload makes its inputs through the CLI (``synth``, plus ``train``
for score-110k), then runs one CLI command as a child process, again and
again for ``--seconds`` and at least MIN_REPS times, and reports medians.
Every output is checked; an operation fails if its process exits
non-zero, prints a traceback, or its output fails the check.

With ``--trace 1`` the set-up and the command also run once in-process
through ``docnids.cli.main`` with docnids' public functions wrapped (see
spans.py), and the per-layer metrics are printed instead.

    python3 perfbench/run.py --workload score-110k --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The line before it is a human summary,
and the line before that a JSON record of every measurement and the
environment it ran in.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

DIMS = 16
SHIFT = 0.6
K = 5
DETECTORS = ["doc", "svdd", "hbos", "pca"]
# synth gets SYNTH_SEED_BASE + --seed and train/evaluate get --seed, so
# the default seed 0 reproduces the standard fixture (seed 42) and model seed 0.
SYNTH_SEED_BASE = 42
# At least this many set-ups, and more until they add up to SETUP_SECONDS,
# so that a sub-second set-up is still a median of many.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
MIN_REPS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # the timed CLI subcommand
    benign: int
    attack: int
    epochs: int


# Why each workload (BENCHMARK.json has the one-line reasons):
# - score-110k times the streaming path: one classify call per row (HBOS,
#   scaler, forward pass) plus cmd_score's own CSV parse and write. It
#   never calls load_csv. Its set-up trains on the same 110k rows, so the
#   traced run also covers ingest and the large-n training loop.
# - evaluate-fixture times the k-fold comparison on the standard fixture:
#   10 small svdd.train fits and the batch scorers, where score-110k uses
#   the single-row ones. A change to one scoring path shows on one of the
#   two and should leave the other flat.
# Training has no workload of its own: its wall time spread too widely
# between runs on a shared 2-core host, and score-110k's setup_s and
# traced set-up already cover it.
WORKLOADS = {
    w.name: w
    for w in [
        Workload("score-110k", "score", 100_000, 10_000, 10),
        Workload("evaluate-fixture", "evaluate", 5_000, 500, 50),
    ]
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "auc": "1"}

PER_LAYER = [
    "cli.cmd_score.self_s",
    "cli.cmd_score.first_row_s",
    "cli.cmd_train.self_s",
    "cli.cmd_evaluate.self_s",
    "data.load_csv.s",
    "data.load_csv.rows",
    "data.apply_scaler.calls",
    "data.apply_scaler.s",
    "data.synth_generate.s",
    "data.save_csv.s",
    "backend.forward_pass.calls",
    "backend.forward_pass.rows",
    "backend.forward_pass.s",
    "backend.backward_pass.calls",
    "backend.backward_pass.s",
    "nn.sgd_step.calls",
    "nn.sgd_step.s",
    "backend.hbos_scores.calls",
    "backend.hbos_scores.rows",
    "backend.hbos_scores.s",
    "svdd.train.s",
    "svdd.train.batches",
    "svdd.train.s_per_batch",
    "svdd.init_center.s",
    "svdd.embed_batch.s",
    "hbos.fit_histograms.s",
    "hbos.hbos_score_batch.s",
    "hbos.hbos_score.calls",
    "hbos.hbos_score.p50_us",
    "hbos.hbos_score.p99_us",
    "pipeline.classify.calls",
    "pipeline.classify.s",
    "pipeline.classify.p50_us",
    "pipeline.classify.p99_us",
    "pipeline.fit.s",
    "pipeline.save.s",
    "pipeline.load.s",
    *[f"evaluation.kfold_evaluate.{d}.s" for d in DETECTORS],
    "evaluation.roc_auc.calls",
    "evaluation.roc_auc.s",
    "trace.overhead_s",
]


def layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    if suffix.endswith("_us"):
        return "us"
    if suffix in ("calls", "batches"):
        return "count"
    if suffix == "rows":
        return "rows"
    return "s"


# --- command lines ------------------------------------------------------


def synth_argv(w: Workload, seed: int, d: Path) -> list[str]:
    return ["synth", "--benign", str(w.benign), "--attack", str(w.attack), "--dims", str(DIMS),
            "--shift", str(SHIFT), "--seed", str(SYNTH_SEED_BASE + seed),
            "--out", str(d / "flows.csv")]


def setup_argvs(w: Workload, seed: int, d: Path) -> list[list[str]]:
    if w.command != "score":
        return [synth_argv(w, seed, d)]
    return [synth_argv(w, seed, d),
            ["train", "--input", str(d / "flows.csv"), "--out", str(d / "model.doc"),
             "--seed", str(seed), "--epochs", str(w.epochs)]]


def timed_argv(w: Workload, seed: int, d: Path) -> list[str]:
    if w.command == "score":
        return ["score", "--model", str(d / "model.doc"), "--input", str(d / "flows.csv")]
    return ["evaluate", "--input", str(d / "flows.csv"), "--detectors", ",".join(DETECTORS),
            "--k", str(K), "--epochs", str(w.epochs), "--seed", str(seed),
            "--out-json", str(d / "report.json")]


# --- child processes ----------------------------------------------------


@dataclass
class Child:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Launcher:
    """Handle on launcher.py, the small process every child is spawned from,
    so that wait4's peak RSS is the child's and not this process's."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("launcher.py"))],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def spawn(self, argv: list[str], cwd: Path, stdout_path: Path) -> Child:
        """Run ``python -m docnids.cli argv`` in cwd; its stdout goes to stdout_path."""
        err_path = stdout_path.with_suffix(".err")
        request = {"argv": [sys.executable, "-m", "docnids.cli", *argv], "cwd": str(cwd),
                   "env": child_env(), "stdout": str(stdout_path), "stderr": str(err_path)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process exited")
        return Child(**json.loads(reply),
                     stderr=err_path.read_text(encoding="utf-8", errors="replace"))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def exit_problems(returncode, stderr: str) -> list[str]:
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    if "Traceback (most recent call last)" in stderr:
        problems.append("traceback on stderr")
    return problems


# --- in-process traced calls ------------------------------------------------


class FirstRowSink:
    """Stands in for sys.stdout; notes when the line after the header
    (the first scored row) has been written."""

    def __init__(self, f):
        self.f = f
        self.newlines = 0
        self.first_row_at = None

    def write(self, s: str) -> int:
        self.f.write(s)
        if self.first_row_at is None:
            self.newlines += s.count("\n")
            if self.newlines >= 2:
                self.first_row_at = time.perf_counter()
        return len(s)

    def flush(self) -> None:
        self.f.flush()


def call_main(cli, argv: list[str], out_path: Path) -> tuple[list[str], float, float]:
    """Run ``cli.main(argv)`` in this process with stdout sent to out_path.
    Returns (problems, wall seconds, seconds from entry to the first row)."""
    err = io.StringIO()
    with open(out_path, "w", encoding="utf-8", newline="") as f:
        sink = FirstRowSink(f)
        start = time.perf_counter()
        try:
            with redirect_stdout(sink), redirect_stderr(err):
                rc = cli.main(argv)
        except Exception:  # the CLI contract maps every failure to an exit code
            rc = None
            err.write(traceback.format_exc())
        wall = time.perf_counter() - start
    first_row = sink.first_row_at - start if sink.first_row_at is not None else 0.0
    return exit_problems(rc, err.getvalue()), wall, first_row


# --- one workload -----------------------------------------------------------


class Run:
    """Operation tally and measurements for one workload run."""

    def __init__(self, w: Workload, seed: int, seconds: float, workdir: Path, docnids,
                 launcher: Launcher):
        self.w, self.seed, self.seconds, self.d = w, seed, seconds, workdir
        self.docnids, self.launcher = docnids, launcher
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.table = None

    def op(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(problems)}")

    def run_cli(self, argv: list[str], label: str) -> None:
        child = self.launcher.spawn(argv, self.d, self.d / f"{argv[0]}.out")
        self.op(label, exit_problems(child.returncode, child.stderr))

    def warm_up(self) -> None:
        """Compile .pyc files and fill the page cache before anything is timed."""
        self.run_cli(["synth", "--benign", "20", "--attack", "2", "--out",
                      str(self.d / "warm.csv")], "warm-up synth")

    def setup(self) -> float:
        start = time.perf_counter()
        for argv in setup_argvs(self.w, self.seed, self.d):
            self.run_cli(argv, f"setup {argv[0]}")
        return time.perf_counter() - start

    def check(self, stdout_path: Path) -> tuple[list[str], float]:
        # checks imports numpy, which must wait until the launcher has started
        from checks import check_evaluate, check_score, read_table

        w, d = self.w, self.d
        if w.command == "evaluate":
            return check_evaluate(d / "report.json", w.benign, w.attack, K, DETECTORS)
        if self.table is None:
            self.table = read_table(d / "flows.csv")
        return check_score(stdout_path, self.table, d / "model.doc", self.docnids.pipeline)

    def rep(self) -> dict:
        """Run the timed command once as a child process, then check its output."""
        child = self.launcher.spawn(timed_argv(self.w, self.seed, self.d), self.d,
                                    self.d / "command.out")
        problems = exit_problems(child.returncode, child.stderr)
        auc = 0.0
        if not problems:
            problems, auc = self.check(self.d / "command.out")
        self.op(self.w.command, problems)
        return {"wall_s": child.wall_s, "cpu_s": child.cpu_s, "peak_rss_mb": child.peak_rss_mb,
                "auc": auc, "ok": not problems}

    def more_reps(self, reps: list[dict]) -> list[dict]:
        """Add repetitions until there are MIN_REPS and ``seconds`` of measured wall time."""
        while len(reps) < MIN_REPS or sum(r["wall_s"] for r in reps) < self.seconds:
            reps.append(self.rep())
        return reps

    def end_to_end(self) -> tuple[dict, dict]:
        self.warm_up()
        # Set-ups alternate with repetitions so that the repetitions are spread
        # over the whole run and sample more of the machine's load phases.
        setups, reps = [], []
        while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
            setups.append(self.setup())
            reps.append(self.rep())
        self.more_reps(reps)
        aucs = [r["auc"] for r in reps if r["ok"]]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "auc": statistics.median(aucs) if aucs else 0.0,
        }
        return metrics, {"setup_s": setups, "reps": reps}

    def traced(self) -> tuple[dict, dict]:
        cli = self.docnids.cli
        self.warm_up()
        tracer = Tracer()
        with tracer:
            for argv in setup_argvs(self.w, self.seed, self.d):
                problems, _, _ = call_main(cli, argv, self.d / f"traced-{argv[0]}.out")
                self.op(f"traced setup {argv[0]}", problems)
        reps = self.more_reps([])
        out = self.d / "traced-command.out"
        with tracer:
            problems, traced_wall, first_row = call_main(
                cli, timed_argv(self.w, self.seed, self.d), out)
        if not problems:
            problems, _ = self.check(out)
        self.op(f"traced {self.w.command}", problems)
        untraced_wall = statistics.median(r["wall_s"] for r in reps)
        metrics = {name: layer_value(tracer, name) for name in PER_LAYER}
        metrics["cli.cmd_score.first_row_s"] = first_row if self.w.command == "score" else 0.0
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        detail = {"reps": reps, "traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall,
                  "unwrapped": tracer.missing, "spans": tracer.table()}
        return metrics, detail


def layer_value(tracer, name: str) -> float:
    """Per-layer metric from the span aggregates; its suffix says what to read."""
    if name == "svdd.train.batches":
        return tracer.calls("backend.backward_pass", parent="svdd.train")
    if name == "svdd.train.s_per_batch":
        batches = tracer.calls("backend.backward_pass", parent="svdd.train")
        return tracer.seconds("svdd.train") / batches if batches else 0.0
    base, suffix = name.rsplit(".", 1)
    if suffix == "s":
        return tracer.seconds(base)
    if suffix == "self_s":
        return tracer.self_seconds(base)
    if suffix == "calls":
        return tracer.calls(base)
    if suffix == "rows":
        return tracer.rows(base)
    if suffix in ("p50_us", "p99_us"):
        return tracer.percentile_us(base, int(suffix[1:3]))
    return 0.0  # measured by the runner itself, not by a span


# --- environment ------------------------------------------------------------


def blas_threads():
    """Thread count the bundled OpenBLAS will use, or None if not found."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(docnids) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "docnids").glob("*.py*")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "docnids_backend": getattr(docnids, "BACKEND", None),
        "nproc": len(os.sched_getaffinity(0)),
    }


# --- entry point ------------------------------------------------------------


def import_docnids():
    """Import docnids from this checkout's src/, or exit 1 if it is not there."""
    if not (SRC / "docnids" / "cli.py").is_file():
        sys.exit(f"perfbench: no docnids source at {SRC / 'docnids'}")
    sys.path.insert(0, str(SRC))
    import docnids
    import docnids.cli

    if not Path(docnids.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: imported docnids from {docnids.__file__}, not from {SRC}")
    return docnids


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, docnids,
                 launcher: Launcher) -> dict:
    workdir = WORK / f"{w.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(w, seed, seconds, workdir, docnids, launcher)
        metrics, detail = run.traced() if trace else run.end_to_end()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    units = {n: layer_unit(n) for n in PER_LAYER} if trace else END_TO_END_UNITS
    return {
        "workload": w.name,
        "seed": seed,
        "trace": trace,
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "metrics": {n: {"value": float(v), "unit": units[n]} for n, v in metrics.items()},
        "detail": detail,
    }


def summary_line(result: dict) -> str:
    shown = ("setup_s", "wall_s", "peak_rss_mb", "auc", "trace.overhead_s")
    parts = [f"{n}={m['value']:.4f} {m['unit']}" for n, m in result["metrics"].items()
             if n in shown]
    rate = result["failed"] / result["attempted"]
    parts.append(f"error_rate={rate:.4f} ({result['failed']}/{result['attempted']})")
    return f"{result['workload']} seed={result['seed']}: " + "  ".join(parts)


def main(argv: list[str] | None = None, workloads: dict[str, Workload] = WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    with Launcher() as launcher:  # before numpy is imported here; see launcher.py
        docnids = import_docnids()
        env = environment(docnids)
        names = list(workloads) if args.workload == "all" else [args.workload]
        results = []
        for name in names:
            result = run_workload(workloads[name], args.seed, args.seconds, bool(args.trace),
                                  docnids, launcher)
            results.append(result)
            print(json.dumps({"record": {**result, "environment": env}}))
            print(summary_line(result), flush=True)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{n}": m for r in results for n, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    # On SIGTERM, unwind so that the launcher and its child are waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
