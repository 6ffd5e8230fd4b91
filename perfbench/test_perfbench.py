"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {name: replace(w, benign=300, attack=30, epochs=3) for name, w in run.WORKLOADS.items()}


def main_lines(capsys, argv, workloads=TINY) -> list[str]:
    assert run.main(argv, workloads=workloads) == 0
    return capsys.readouterr().out.strip().splitlines()


def records(lines: list[str]) -> list[dict]:
    return [json.loads(line)["record"] for line in lines if line.startswith('{"record"')]


def test_spec_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in SPEC["per_layer"]] == run.PER_LAYER
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in SPEC["per_layer"])


def test_every_end_to_end_metric_is_printed_for_every_workload(capsys):
    lines = main_lines(capsys, ["--workload", "all", "--seconds", "0"])
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0
    recs = records(lines)
    assert [r["workload"] for r in recs] == list(TINY)
    for r in recs:
        assert {n: m["unit"] for n, m in r["metrics"].items()} == run.END_TO_END_UNITS
        assert all(m["value"] > 0 and math.isfinite(m["value"]) for m in r["metrics"].values())
        assert r["environment"]["nproc"] >= 1
    assert "error_rate=0.0000" in lines[-2]


def traced_counts(capsys, name: str) -> dict:
    lines = main_lines(capsys, ["--workload", name, "--seconds", "0", "--trace", "1"])
    final = json.loads(lines[-1])
    assert final["correct"], records(lines)[0]["problems"]
    assert {n: m["unit"] for n, m in final["metrics"].items()} == {
        n: run.layer_unit(n) for n in run.PER_LAYER
    }
    return {n: m["value"] for n, m in final["metrics"].items() if m["unit"] in ("count", "rows")}


@pytest.mark.parametrize("name", list(TINY))
def test_traced_counts_match_the_inputs_and_repeat(capsys, name):
    w = TINY[name]
    first = traced_counts(capsys, name)
    assert traced_counts(capsys, name) == first
    batches_per_epoch = math.ceil(w.benign / 256)
    if name == "score-110k":
        assert first["pipeline.classify.calls"] == w.benign + w.attack
        # from the set-up's train command
        assert first["data.load_csv.rows"] == w.benign + w.attack
        assert first["svdd.train.batches"] == batches_per_epoch * w.epochs
    else:
        fold_train = w.benign - w.benign // run.K
        per_fit = math.ceil(fold_train / 256) * w.epochs
        assert first["svdd.train.batches"] == 2 * run.K * per_fit  # doc and svdd
        assert first["evaluation.roc_auc.calls"] == len(run.DETECTORS) * run.K


def corrupt_after(kind: str, corrupt):
    """A spawn that corrupts the output of every timed ``kind`` command."""
    real = run.Launcher.spawn

    def spawn(self, argv, cwd, stdout_path):
        child = real(self, argv, cwd, stdout_path)
        if argv[0] == kind and stdout_path.name == "command.out":
            corrupt(cwd, stdout_path)
        return child

    return spawn


def truncate(cwd: Path, out: Path) -> None:
    lines = out.read_text().splitlines(keepends=True)
    out.write_text("".join(lines[:-5]))


def flip_verdict(cwd: Path, out: Path) -> None:
    lines = out.read_text().splitlines(keepends=True)
    lines[3] = lines[3].replace("benign", "anomaly") if "benign" in lines[3] else (
        lines[3].replace("anomaly", "benign"))
    out.write_text("".join(lines))


def drop_fold(cwd: Path, out: Path) -> None:
    report = json.loads((cwd / "report.json").read_text())
    report["reports"][0]["folds"].pop()
    (cwd / "report.json").write_text(json.dumps(report))


@pytest.mark.parametrize("name,kind,corrupt", [
    ("score-110k", "score", truncate),
    ("score-110k", "score", flip_verdict),
    ("evaluate-fixture", "evaluate", drop_fold),
])
def test_corrupted_output_counts_as_failed(capsys, monkeypatch, name, kind, corrupt):
    monkeypatch.setattr(run.Launcher, "spawn", corrupt_after(kind, corrupt))
    lines = main_lines(capsys, ["--workload", name, "--seconds", "0"])
    final = json.loads(lines[-1])
    reps = len(records(lines)[0]["detail"]["reps"])
    assert not final["correct"]
    assert final["failed"] == reps  # every timed repetition, and nothing else
    assert f"error_rate={reps / final['attempted']:.4f}" in lines[-2]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "evaluate-fixture", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
