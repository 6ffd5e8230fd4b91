"""Regenerate the pinned CLI outputs that ``test_outputs.py`` compares to.

The input is ``pinned/flows.csv``, the 300-row table of
``docnids synth --benign 270 --attack 30 --dims 6 --seed 1``, committed as
a file so that no RNG stream stands between the test and its input. A
change that alters an output on purpose reruns this script from the
repository root and says so in its change notes:

    python tests/regenerate_outputs.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

PINNED = Path(__file__).parent / "pinned"
TABLE = "flows.csv"

# Each output file and the argv that makes it; "{out}" is the output's
# name. A ".csv" output is the command's stdout, any other is the file it
# writes. They run in this order, in the table's directory, so that the
# reports echo a relative input path.
RUNS = {
    "model.doc": "train --input flows.csv --out {out} --epochs 2",
    "model-fraction.doc": "train --input flows.csv --out {out} --epochs 2 --train-fraction 0.6",
    "scored.csv": "score --model model.doc --input flows.csv",
    "evaluate-kfold.json": "evaluate --input flows.csv --k 3 --epochs 2 --out-json {out}",
    "evaluate-holdout.json": (
        "evaluate --input flows.csv --k 3 --epochs 2 --protocol holdout --out-json {out}"
    ),
}


def produce(directory: Path) -> None:
    """Run every command of ``RUNS`` in ``directory``, which holds the
    table, and leave its outputs there; a report loses its run-dependent
    ``wall_seconds``."""
    from docnids import cli

    here = os.getcwd()
    os.chdir(directory)
    try:
        for name, argv in RUNS.items():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv.format(out=name).split())
            if code != 0:
                raise RuntimeError(f"{argv} exited {code}")
            if name.endswith(".csv"):
                Path(name).write_text(stdout.getvalue())
            elif name.endswith(".json"):
                payload = json.loads(Path(name).read_text())
                for report in payload["reports"]:
                    del report["wall_seconds"]
                Path(name).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    finally:
        os.chdir(here)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parents[1] / "src"))
    produce(PINNED)
    print(f"wrote {', '.join(RUNS)} to {PINNED}")
