"""Command-line front end: synth, train, score, evaluate, report.

Exit codes are a stable contract: 0 success, 2 flag error, 3 data
error, 4 model file error, 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import data, evaluation, hbos, pipeline
from .errors import DataError, ModelFormatError, TrainingDivergedError
from .nn import Activation
from .svdd import SvddConfig

EXIT_OK = 0
EXIT_FLAG = 2
EXIT_DATA = 3
EXIT_MODEL = 4
EXIT_INTERRUPTED = 130

# The keys every entry of a saved report must hold; "folds" may be absent.
REPORT_KEYS = ("detector", "protocol", "k", "contamination", "seed", "config", "summary")

# The bytes ``score`` asks of a stdout pipe. Linux's default pipe holds
# 64 KiB, less than one 256-line chunk's output on a 16-feature table
# (about 95 KB), so each chunk's write would wait for the reader. 1 MiB
# holds several chunks and is the most that fs.pipe-max-size lets an
# unprivileged process ask for by default.
STDOUT_PIPE_BYTES = 1 << 20


def _default_seed() -> int:
    text = os.environ.get("DOC_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"DOC_SEED must be an integer, got {text!r}")


def _parse_dims(text: str | None) -> list[int] | None:
    if text is None:
        return None
    try:
        dims = [int(p) for p in text.split(",")]
    except ValueError:
        raise ValueError(f"--layer-dims must be comma-separated ints, got {text!r}")
    if len(dims) < 2 or min(dims) < 1:
        raise ValueError(f"--layer-dims needs two or more dims, each >= 1, got {text!r}")
    return dims


def _svdd_config(args) -> SvddConfig:
    """The training flags as a validated SvddConfig; a bad value exits 2."""
    config = SvddConfig(
        layer_dims=_parse_dims(args.layer_dims),
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr=args.lr,
        weight_decay=args.weight_decay,
        seed=args.seed,
        activation=Activation(args.activation),
    )
    try:
        config.validate()
    except ValueError as e:
        flags = "--epochs/--batch-size/--lr/--weight-decay"
        raise ValueError(f"invalid training flags ({flags}): {e}")
    return config


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epochs", type=int, default=SvddConfig.epochs)
    p.add_argument("--batch-size", type=int, default=SvddConfig.batch_size)
    p.add_argument("--lr", type=float, default=SvddConfig.lr)
    p.add_argument("--weight-decay", type=float, default=SvddConfig.weight_decay)
    p.add_argument("--layer-dims", default=None, help="comma-separated, e.g. 16,32,8")
    p.add_argument(
        "--activation",
        choices=[a.value for a in Activation],
        default=SvddConfig.activation.value,
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
        raise ValueError(f"invalid synth flags (--benign/--attack/--dims/--shift): {e}")
    except MemoryError:
        raise ValueError(
            f"not enough memory for {args.benign} + {args.attack} rows of {args.dims} features"
            " (--benign/--attack/--dims)"
        )
    try:
        data.save_csv(ds, args.out)
    except OSError as e:
        raise ValueError(f"cannot write {args.out}: {e}")
    print(f"wrote {ds.n_benign} benign + {ds.n_attack} attack rows to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = _svdd_config(args)
    if args.train_fraction is not None:
        data.check_fraction(args.train_fraction)
    pipeline.check_contamination(args.contamination)
    hbos.check_bins(args.bins)
    ds = data.load_csv(args.input, args.label_column, _drop_list(args), args.category_column)
    benign = (ds.labels == 0).nonzero()[0]
    if benign.size == 0:
        raise DataError("no benign rows to train on")
    if args.train_fraction is not None:
        benign = data.split_benign_indices(ds.labels, args.train_fraction, args.seed)[0]
    # a ValueError here is a flag error: main exits 2
    (model,) = pipeline.fit(
        config, ds.rows, [benign], ds.columns, bins=args.bins, contamination=args.contamination
    )
    try:
        pipeline.save(model, args.out)
    except OSError as e:
        raise ValueError(f"cannot write {args.out}: {e}")
    final_loss = model.svdd.train_history[-1][1] if model.svdd.train_history else float("nan")
    print(f"trained on {len(benign)} benign rows (seed {args.seed})")
    print(f"epochs: {config.epochs}  final loss: {final_loss:.6f}")
    print(f"threshold: {model.threshold:.6f}  contamination: {args.contamination}")
    print(f"model written to {args.out}")
    return EXIT_OK


def _grow_pipe(out) -> None:
    """Grow ``out`` to ``STDOUT_PIPE_BYTES`` if it is a smaller Linux
    pipe; leave any other ``out`` as it is."""
    try:
        import fcntl

        fd = out.fileno()
        if fcntl.fcntl(fd, fcntl.F_GETPIPE_SZ) < STDOUT_PIPE_BYTES:
            fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, STDOUT_PIPE_BYTES)
    except (ImportError, AttributeError, OSError, ValueError):
        # no fcntl (Windows), no pipe sizes (not Linux), no file
        # descriptor, not a pipe, or a size over the system's limit
        pass


def cmd_score(args) -> int:
    try:
        model = pipeline.load(args.model)
    except OSError as e:
        # a missing model file, a directory, or one that cannot be read
        raise DataError(f"cannot read model {args.model}: {e.strerror or e}")
    out = sys.stdout
    _grow_pipe(out)
    writer = csv.writer(out, lineterminator="\n")
    with data.open_csv(args.input) as (header, rest):
        feature_idx = data.feature_indices(
            header, args.label_column, args.category_column, _drop_list(args)
        )
        columns = [header[i] for i in feature_idx]
        pipeline.check_schema(model, columns)
        writer.writerow(header + ["score", "verdict"])
        for start, lines, records, x, bad in data.read_chunks(rest, feature_idx):
            n_good = bad[0] - start if bad else len(x)
            scores = pipeline.score_batch(model, x[:n_good])
            labels = pipeline.verdict_labels(model, scores)
            if records is None:
                # csv.writer would write a raw line's cells back as they are.
                out.write("".join([
                    f"{line[:-1]},{s!r},{label}\n"
                    for line, s, label in zip(lines, scores.tolist(), labels)
                ]))
            else:
                writer.writerows(
                    rec + [s, label] for rec, s, label in zip(records, scores.tolist(), labels)
                )
            if bad:
                raise DataError(f"{args.input}: unparseable row at index {bad[0]}")
    return EXIT_OK


def _detector_names(text: str) -> list[str]:
    """The names in ``--detectors``, at least one; ``check_settings`` checks the rest."""
    names = [n for n in text.split(",") if n]
    if not names:
        raise ValueError(f"--detectors names no detector, got {text!r}")
    return names


def _write_text(path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as e:
        raise ValueError(f"cannot write {path}: {e}")


def cmd_evaluate(args) -> int:
    names = _detector_names(args.detectors)
    evaluation.check_settings(
        names, args.protocol, args.k, args.train_fraction, args.contamination, args.bins
    )
    config = _svdd_config(args)
    ds = data.load_csv(args.input, args.label_column, _drop_list(args), args.category_column)
    reports = evaluation.evaluate(
        ds, names, config, bins=args.bins, protocol=args.protocol, k=args.k,
        train_fraction=args.train_fraction, contamination=args.contamination, seed=args.seed,
    )
    for report in reports:
        report["config"]["input"] = str(args.input)

    # both files are written before anything is printed, so a write that
    # fails leaves stdout empty
    table = evaluation.render_table(reports)
    if args.out_json:
        _write_text(args.out_json, json.dumps({"reports": reports}, indent=2, sort_keys=True))
    if args.out_table:
        _write_text(args.out_table, table + "\n")
    print(table)
    print(f"seed: {args.seed}")
    print(
        "note: absolute metrics depend strongly on the network architecture and\n"
        "training hyperparameters; defaults here are not tuned to any published\n"
        "benchmark and results on external datasets will differ from reported values."
    )
    if args.out_json:
        print(f"json report written to {args.out_json}")
    if args.out_table:
        print(f"text table written to {args.out_table}")
    return EXIT_OK


def cmd_report(args) -> int:
    try:
        with open(args.json, encoding="utf-8") as f:
            payload = json.load(f)
    except OSError as e:
        raise ValueError(f"cannot read {args.json}: {e}")
    except UnicodeDecodeError as e:
        raise DataError(f"{args.json}: not UTF-8 text ({e.reason})")
    except (json.JSONDecodeError, RecursionError) as e:
        # RecursionError: arrays or objects nested past the parser's limit
        raise DataError(f"{args.json}: not a valid report file: {e}")
    entries = payload.get("reports", []) if isinstance(payload, dict) else None
    if not isinstance(entries, list):
        raise DataError(
            f"{args.json}: not a valid report file: expected an object holding a 'reports' list"
        )
    try:
        for doc in entries:
            for key in REPORT_KEYS:
                doc[key]  # raises for a missing key or an entry that is not an object
        table = evaluation.render_table(entries)
    except (KeyError, TypeError, AttributeError, ValueError) as e:
        raise DataError(f"{args.json}: incomplete report entry ({type(e).__name__}: {e})")
    if not entries:
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
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a detector on the benign rows of a CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
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
    p.add_argument("--seed", type=int, default=None)
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
        # synth, train and evaluate take a seed, DOC_SEED's by default;
        # checked before any read
        if getattr(args, "seed", 0) is None:
            args.seed = _default_seed()
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed (or DOC_SEED) must be >= 0, got {args.seed}")
        code = args.func(args)
        # Flushed here, a closed pipe raises below and not at exit.
        sys.stdout.flush()
        return code
    except KeyboardInterrupt:
        # Ctrl-C: one line, not a traceback; 130 is the shell's code for
        # a command that SIGINT stopped
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except BrokenPipeError:
        # The reader of stdout stopped reading, as `| head` does: a normal
        # end. Point stdout at /dev/null so the flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except ModelFormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MODEL
    except DataError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as e:
        # numpy's message names the array it could not allocate
        print(f"error: not enough memory ({str(e) or 'allocation failed'})", file=sys.stderr)
        return EXIT_FLAG
    except TrainingDivergedError as e:
        print(f"error: training diverged ({e}); try a lower --lr", file=sys.stderr)
        return EXIT_FLAG
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FLAG


if __name__ == "__main__":
    sys.exit(main())
