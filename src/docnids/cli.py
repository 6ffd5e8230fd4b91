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

from . import data, evaluation, pipeline
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
        raise CliError(f"invalid training flags ({flags}): {e}", EXIT_FLAG)
    return config


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
    except MemoryError:
        raise CliError(
            f"not enough memory for {args.benign} + {args.attack} rows of {args.dims} features"
            " (--benign/--attack/--dims)", EXIT_FLAG,
        )
    try:
        data.save_csv(ds, args.out)
    except OSError as e:
        raise CliError(f"cannot write {args.out}: {e}", EXIT_FLAG)
    print(f"wrote {ds.n_benign} benign + {ds.n_attack} attack rows to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = _svdd_config(args)
    ds = data.load_csv(args.input, args.label_column, _drop_list(args), args.category_column)
    benign = ds.rows[ds.labels == 0]
    if benign.shape[0] == 0:
        raise DataError("no benign rows to train on")
    if args.train_fraction is not None:
        spec = data.SplitSpec(args.train_fraction, args.seed)
        benign = ds.rows[data.split_benign_indices(ds.labels, spec)[0]]
    scaler = data.fit_scaler(benign)
    scaled = data.apply_scaler(scaler, benign)
    try:
        model = pipeline.fit(
            config, scaled, scaler, ds.columns, bins=args.bins, contamination=args.contamination
        )
    except ValueError as e:
        raise CliError(str(e), EXIT_FLAG)
    try:
        pipeline.save(model, args.out)
    except OSError as e:
        raise CliError(f"cannot write {args.out}: {e}", EXIT_FLAG)
    final_loss = model.svdd.train_history[-1][1] if model.svdd.train_history else float("nan")
    print(f"trained on {len(scaled)} benign rows (seed {args.seed})")
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
        width = max(feature_idx) + 1
        for start, lines, records, x, bad in data.read_chunks(rest, feature_idx, width):
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
    """The names in ``--detectors``: at least one, each known, none twice."""
    names = [n for n in text.split(",") if n]
    if not names:
        raise CliError(f"--detectors names no detector, got {text!r}", EXIT_FLAG)
    for i, n in enumerate(names):
        if n not in evaluation.DETECTORS:
            raise CliError(
                f"unknown detector {n!r}; choose from {sorted(evaluation.DETECTORS)}",
                EXIT_FLAG,
            )
        if n in names[:i]:
            raise CliError(f"--detectors names {n!r} more than once", EXIT_FLAG)
    return names


def _write_text(path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as e:
        raise CliError(f"cannot write {path}: {e}", EXIT_FLAG)


def cmd_evaluate(args) -> int:
    names = _detector_names(args.detectors)
    config = _svdd_config(args)
    ds = data.load_csv(args.input, args.label_column, _drop_list(args), args.category_column)
    if ds.n_attack == 0 or ds.n_benign == 0:
        raise DataError("evaluation needs both benign and attack rows")
    echo = {
        # checked against the data before any fold, whichever detectors run
        "layer_dims": config.resolve_dims(ds.rows.shape[1]),
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

    reports = evaluation.evaluate(
        ds, names, config, bins=args.bins, protocol=args.protocol, k=args.k,
        train_fraction=args.train_fraction, contamination=args.contamination,
        seed=args.seed, config_echo=echo,
    )

    table = evaluation.render_table(reports)
    print(table)
    print(f"seed: {args.seed}")
    print(
        "note: absolute metrics depend strongly on the network architecture and\n"
        "training hyperparameters; defaults here are not tuned to any published\n"
        "benchmark and results on external datasets will differ from reported values."
    )
    if args.out_json:
        _write_text(args.out_json, json.dumps({"reports": reports}, indent=2, sort_keys=True))
        print(f"json report written to {args.out_json}")
    if args.out_table:
        _write_text(args.out_table, table + "\n")
        print(f"text table written to {args.out_table}")
    return EXIT_OK


def cmd_report(args) -> int:
    try:
        with open(args.json, encoding="utf-8") as f:
            payload = json.load(f)
    except OSError as e:
        raise CliError(f"cannot read {args.json}: {e}", EXIT_FLAG)
    except UnicodeDecodeError as e:
        raise DataError(f"{args.json}: not UTF-8 text ({e.reason})")
    except json.JSONDecodeError as e:
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
