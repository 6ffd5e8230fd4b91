"""Command-line front end: synth, train, score, evaluate, report.

Exit codes are a stable contract: 0 success, 2 flag error, 3 data
error, 4 model file error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import os
import sys

import numpy as np

from . import data, evaluation, pipeline
from .errors import DataError, ModelFormatError, TrainingDivergedError
from .nn import Activation
from .svdd import SvddConfig

EXIT_OK = 0
EXIT_FLAG = 2
EXIT_DATA = 3
EXIT_MODEL = 4

# Rows parsed and scored per batch by `score`. Peak memory grows with it
# while the wall time is flat from 64 rows up.
SCORE_CHUNK_ROWS = 64


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _default_seed() -> int:
    text = os.environ.get("DOC_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise CliError(f"DOC_SEED must be an integer, got {text!r}", EXIT_FLAG)


def _parse_dims(text: str | None) -> list[int] | None:
    if text is None:
        return None
    try:
        dims = [int(p) for p in text.split(",")]
    except ValueError:
        raise CliError(f"--layer-dims must be comma-separated ints, got {text!r}", EXIT_FLAG)
    return dims


def _svdd_config(args, input_dim: int | None = None) -> SvddConfig:
    dims = _parse_dims(args.layer_dims)
    if dims is None and input_dim is not None:
        dims = [input_dim, 32, 8]
    return SvddConfig(
        layer_dims=dims,
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr=args.lr,
        weight_decay=args.weight_decay,
        seed=args.seed,
        activation=Activation(args.activation),
    )


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--batch-size", type=int, default=256)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--weight-decay", type=float, default=1e-4)
    p.add_argument("--layer-dims", default=None, help="comma-separated, e.g. 16,32,8")
    p.add_argument(
        "--activation",
        choices=[a.value for a in Activation],
        default=Activation.LEAKY_RECTIFIER.value,
    )
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--contamination", type=float, default=0.1)


def _add_csv_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--label-column", default="Label")
    p.add_argument("--category-column", default="Attack")
    p.add_argument(
        "--drop-columns",
        default=",".join(data.DEFAULT_DROP_COLUMNS),
        help="comma-separated identifier columns to drop",
    )


def _drop_list(args) -> list[str]:
    return [c for c in args.drop_columns.split(",") if c]


def cmd_synth(args) -> int:
    try:
        ds = data.synth_generate(args.benign, args.attack, args.dims, args.shift, args.seed)
    except ValueError as e:
        raise CliError(f"invalid synth flags (--benign/--attack/--dims/--shift): {e}", EXIT_FLAG)
    try:
        data.save_csv(ds, args.out)
    except OSError as e:
        raise CliError(f"cannot write {args.out}: {e}", EXIT_FLAG)
    print(f"wrote {ds.n_benign} benign + {ds.n_attack} attack rows to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    ds = data.load_csv(args.input, args.label_column, _drop_list(args), args.category_column)
    benign = ds.rows[ds.labels == 0]
    if benign.shape[0] == 0:
        raise DataError("no benign rows to train on")
    if args.train_fraction is not None:
        spec = data.SplitSpec(args.train_fraction, args.seed)
        benign, _ = data.split_benign(
            data.LabeledDataset(ds.columns, benign, np.zeros(len(benign), np.int64)), spec
        )
    scaler = data.fit_scaler(benign)
    scaled = data.apply_scaler(scaler, benign)
    config = _svdd_config(args, input_dim=scaled.shape[1])
    try:
        model = pipeline.fit(
            config, scaled, scaler, ds.columns, bins=args.bins, contamination=args.contamination
        )
    except ValueError as e:
        raise CliError(str(e), EXIT_FLAG)
    pipeline.save(model, args.out)
    final_loss = model.svdd.train_history[-1][1] if model.svdd.train_history else float("nan")
    print(f"trained on {len(scaled)} benign rows (seed {args.seed})")
    print(f"epochs: {config.epochs}  final loss: {final_loss:.6f}")
    print(f"threshold: {model.threshold:.6f}  contamination: {args.contamination}")
    print(f"model written to {args.out}")
    return EXIT_OK


def _parse_features(rows: list[list[str]], feature_idx: list[int]) -> np.ndarray:
    """Feature columns of the leading good rows of ``rows`` as a float
    array; parsing stops at the first row with a missing, unparseable or
    non-finite feature, so ``len(result) < len(rows)`` marks that row."""
    values = []
    for rec in rows:
        try:
            values.append([float(rec[i]) for i in feature_idx])
        except (ValueError, IndexError):
            break
    x = np.array(values, dtype=np.float64).reshape(len(values), len(feature_idx))
    finite = np.isfinite(x).all(axis=1)
    return x if finite.all() else x[: int(np.argmin(finite))]


def cmd_score(args) -> int:
    model = pipeline.load(args.model)
    drop = set(_drop_list(args))
    writer = csv.writer(sys.stdout, lineterminator="\n")
    with open(args.input, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{args.input}: file is empty")
        skip = {args.label_column, args.category_column} | drop
        feature_idx = [i for i, name in enumerate(header) if name not in skip]
        columns = [header[i] for i in feature_idx]
        pipeline.check_schema(model, columns)
        writer.writerow(header + ["score", "verdict"])
        rownum = 0
        while chunk := list(itertools.islice(reader, SCORE_CHUNK_ROWS)):
            x = _parse_features(chunk, feature_idx)
            scores = pipeline.score_batch(model, x)
            labels = pipeline.verdict_labels(model, scores)
            writer.writerows(
                rec + [s, label] for rec, s, label in zip(chunk, scores.tolist(), labels)
            )
            if len(x) < len(chunk):
                raise DataError(f"{args.input}: unparseable row at index {rownum + len(x)}")
            rownum += len(chunk)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    ds = data.load_csv(args.input, args.label_column, _drop_list(args), args.category_column)
    if ds.n_attack == 0 or ds.n_benign == 0:
        raise DataError("evaluation needs both benign and attack rows")
    names = [n for n in args.detectors.split(",") if n]
    for n in names:
        if n not in evaluation.DETECTOR_FACTORIES:
            raise CliError(
                f"unknown detector {n!r}; choose from {sorted(evaluation.DETECTOR_FACTORIES)}",
                EXIT_FLAG,
            )
    config = _svdd_config(args, input_dim=ds.rows.shape[1])
    echo = {
        "layer_dims": config.layer_dims,
        "epochs": config.epochs,
        "batch_size": config.batch_size,
        "lr": config.lr,
        "weight_decay": config.weight_decay,
        "bins": args.bins,
        "contamination": args.contamination,
        "seed": args.seed,
        "protocol": args.protocol,
        "detectors": names,
        "input": str(args.input),
    }

    reports = []
    for name in names:
        factory = functools.partial(evaluation.DETECTOR_FACTORIES[name], config, args.bins)
        if args.protocol == "kfold":
            report = evaluation.kfold_evaluate(
                ds, factory, k=args.k, contamination=args.contamination,
                seed=args.seed, config_echo=echo,
            )
        else:
            report = evaluation.holdout_evaluate(
                ds, factory, train_fraction=args.train_fraction,
                contamination=args.contamination, seed=args.seed, config_echo=echo,
            )
        reports.append(report)

    table = evaluation.render_table(reports)
    print(table)
    print(f"seed: {args.seed}")
    print(
        "note: absolute metrics depend strongly on the network architecture and\n"
        "training hyperparameters; defaults here are not tuned to any published\n"
        "benchmark and results on external datasets will differ from reported values."
    )
    if args.out_json:
        payload = {"reports": [json.loads(r.to_json()) for r in reports]}
        with open(args.out_json, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
        print(f"json report written to {args.out_json}")
    if args.out_table:
        with open(args.out_table, "w", encoding="utf-8") as f:
            f.write(table + "\n")
        print(f"text table written to {args.out_table}")
    return EXIT_OK


def cmd_report(args) -> int:
    try:
        with open(args.json, encoding="utf-8") as f:
            payload = json.load(f)
    except OSError as e:
        raise CliError(f"cannot read {args.json}: {e}", EXIT_FLAG)
    except json.JSONDecodeError as e:
        raise DataError(f"{args.json}: not a valid report file: {e}")
    entries = payload.get("reports", []) if isinstance(payload, dict) else None
    if not isinstance(entries, list):
        raise DataError(
            f"{args.json}: not a valid report file: expected an object holding a 'reports' list"
        )
    reports = []
    try:
        for doc in entries:
            r = evaluation.EvalReport(
                detector=doc["detector"], protocol=doc["protocol"], k=doc["k"],
                contamination=doc["contamination"], seed=doc["seed"], config=doc["config"],
                folds=[], wall_seconds=doc.get("wall_seconds", 0.0),
                summary=doc["summary"],
            )
            r.folds = [None] * len(doc.get("folds", []))  # only the summary is rendered
            reports.append(r)
        table = evaluation.render_table(reports)
    except (KeyError, TypeError, AttributeError, ValueError) as e:
        raise DataError(f"{args.json}: incomplete report entry ({type(e).__name__}: {e})")
    if not reports:
        raise DataError(f"{args.json}: no reports found")
    print(table)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="docnids",
        description="One-class network anomaly detection: train on benign flows only.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    p.add_argument("--benign", type=int, required=True)
    p.add_argument("--attack", type=int, required=True)
    p.add_argument("--dims", type=int, default=16)
    p.add_argument("--shift", type=float, default=0.6)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a detector on the benign rows of a CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument(
        "--train-fraction", type=float, default=None,
        help="optionally train on only this fraction of benign rows",
    )
    _add_csv_flags(p)
    _add_model_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="score a CSV against a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    _add_csv_flags(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("evaluate", help="k-fold or holdout evaluation of detectors")
    p.add_argument("--input", required=True)
    p.add_argument("--detectors", default="doc,svdd,hbos,pca")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--protocol", choices=["kfold", "holdout"], default="kfold")
    p.add_argument("--train-fraction", type=float, default=0.7)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--out-json", default=None)
    p.add_argument("--out-table", default=None)
    _add_csv_flags(p)
    _add_model_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="render a saved JSON report as a text table")
    p.add_argument("--json", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as e:
            return EXIT_FLAG if e.code not in (0, None) else EXIT_OK
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except ModelFormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MODEL
    except DataError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except TrainingDivergedError as e:
        print(f"error: training diverged ({e}); try a lower --lr", file=sys.stderr)
        return EXIT_FLAG
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FLAG


if __name__ == "__main__":
    sys.exit(main())
