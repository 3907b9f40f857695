"""Command-line interface.

Commands: evaluate one dataset, bench a directory of datasets, calibrate
hyper-parameters on a training list, and rank externally supplied partitions.
Exit codes: 0 success, 1 bad arguments or config (usage error), 2 anything
wrong with the data (data error).
"""

import argparse
import configparser
import dataclasses
import os
import sys

from .config import build_run_config, load_config_file, resolve_config_path
from .data_io import FORMATS, DataError, load_dataset
from .harness import aggregate_accuracy, calibrate, evaluate_dataset, write_accuracy, write_report
from .partitions import load_partitions

DATASET_EXTENSIONS = {".csv": "csv", ".arff": "arff", ".txt": "whitespace", ".dat": "whitespace", ".data": "whitespace"}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_common(parser):
    parser.add_argument("--config", help="config file (or set KDEVAL_CONFIG)")
    parser.add_argument("--k-min", type=int, default=None)
    parser.add_argument("--k-max", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--indices", default=None, help="comma list from ch,sc,db,new")
    parser.add_argument("--svg", action="store_true", help="emit top-5 SVG scatter plots")
    parser.add_argument("--variants", action="store_true", help="add variant sub-index columns")
    parser.add_argument("--format", default=None, choices=FORMATS)
    parser.add_argument("--label-column", type=int, default=None)
    parser.add_argument("--out", default="kdeval_out", help="output directory")


def build_parser():
    parser = _Parser(prog="kdeval", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="score all candidate partitions of one dataset")
    p.add_argument("dataset")
    _add_common(p)

    p = sub.add_parser("bench", help="evaluate every dataset in a directory and aggregate accuracy")
    p.add_argument("directory")
    _add_common(p)

    p = sub.add_parser("calibrate", help="grid-search delta/alpha on labeled training datasets")
    p.add_argument("directory")
    p.add_argument("--train-list", required=True, help="file with one dataset filename per line")
    _add_common(p)

    p = sub.add_parser("rank", help="score externally supplied partitions of a dataset")
    p.add_argument("dataset")
    p.add_argument("--partitions", required=True, help="directory of label files (+ manifest.csv)")
    _add_common(p)

    return parser


def _config_from_args(args):
    """RunConfig from the flags and config file; any fault in them is a
    usage error."""
    cfg_path = resolve_config_path(args.config)
    indices = tuple(part.strip() for part in args.indices.split(",")) if args.indices else None
    try:
        return build_run_config(
            seed=args.seed,
            file_overrides=load_config_file(cfg_path) if cfg_path else None,
            k_min=args.k_min,
            k_max=args.k_max,
            indices=indices,
            emit_svg=True if args.svg else None,
            include_variants=True if args.variants else None,
        )
    except (OSError, ValueError, configparser.Error) as exc:
        raise UsageError(str(exc)) from exc


def _guess_format(path, explicit):
    if explicit:
        return explicit
    ext = os.path.splitext(path)[1].lower()
    if ext not in DATASET_EXTENSIONS:
        raise UsageError(f"cannot infer format of {path!r}; pass --format")
    return DATASET_EXTENSIONS[ext]


def _load(path, args):
    return load_dataset(path, format=_guess_format(path, args.format), label_column=args.label_column)


def _cmd_evaluate(args):
    """evaluate; rank is the same run on the partitions in --partitions
    instead of generated candidates."""
    config = _config_from_args(args)
    dataset = _load(args.dataset, args)
    candidates = None
    if args.command == "rank":
        candidates = load_partitions(args.partitions)
        for part in candidates:
            if part.n != dataset.n:
                raise DataError(
                    f"partition {part.source!r} has {part.n} labels for {dataset.n} points"
                )
    report = evaluate_dataset(config, dataset, candidates=candidates)
    write_report(report, args.out, dataset=dataset, emit_svgs=config.emit_svg)
    if candidates is not None:
        print(f"{dataset.id}: ranked {len(candidates)} supplied partitions -> {args.out}")
        return 0
    print(f"{dataset.id}: {len(report.rows)} candidates -> {args.out}")
    for index, flag in report.success.items():
        if flag is None:
            continue
        print(f"  {index}: champion ARI {report.champion_ari[index]:.5f} "
              f"-> {'SUCCEEDED' if flag else 'FAILED'}")
    return 0


def _dataset_files(directory):
    try:
        names = sorted(os.listdir(directory))
    except OSError as exc:
        raise DataError(f"cannot list {directory!r}: {exc}") from exc
    files = [
        os.path.join(directory, name)
        for name in names
        if os.path.splitext(name)[1].lower() in DATASET_EXTENSIONS
    ]
    if not files:
        raise DataError(f"no dataset files found in {directory!r}")
    return files


def _cmd_bench(args):
    """Evaluate every dataset file; a dataset with a data error, or whose id
    (file stem) an earlier file's report already took, is reported and
    skipped, and the run then exits 2 after aggregating the others."""
    config = _config_from_args(args)
    reports = []
    written = {}  # dataset id -> the file whose report is in <out>/<id>
    status = 0
    for path in _dataset_files(args.directory):
        try:
            dataset = _load(path, args)
            if dataset.id in written:
                earlier = written[dataset.id]
                raise DataError(f"dataset id {dataset.id!r} is already taken by {earlier}")
            report = evaluate_dataset(config, dataset)
        except (DataError, OSError, ValueError) as exc:
            print(f"data error: {path}: {exc}", file=sys.stderr)
            status = 2
            continue
        write_report(report, os.path.join(args.out, dataset.id), dataset=dataset,
                     emit_svgs=config.emit_svg)
        written[dataset.id] = path
        print(f"{dataset.id}: {len(report.rows)} candidates scored")
        # aggregation reads only the id and the champion ARIs; the candidates'
        # labels would otherwise stay alive until every dataset is done
        reports.append(dataclasses.replace(report, rows=[], candidates=[]))
    try:
        table = aggregate_accuracy(reports)
    except ValueError as exc:
        print(f"accuracy aggregation skipped: {exc}", file=sys.stderr)
        return status
    write_accuracy(table, args.out)
    for index in table.grid:
        print(f"{index}: {table.summary(index)}")
    return status


def _cmd_calibrate(args):
    config = _config_from_args(args)
    try:
        with open(args.train_list, "r", encoding="utf-8") as fh:
            names = [line.strip() for line in fh if line.strip()]
    except OSError as exc:
        raise DataError(f"cannot read train list: {exc}") from exc
    datasets = [_load(os.path.join(args.directory, name), args) for name in names]
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "calibrated.ini")
    best = calibrate(config, datasets, out_path=out_path)
    print(f"calibrated on {len(datasets)} datasets -> {out_path}")
    print(f"delta={best.delta} alpha1={best.alpha1} alpha2={best.alpha2}")
    return 0


COMMANDS = {
    "evaluate": _cmd_evaluate,
    "bench": _cmd_bench,
    "calibrate": _cmd_calibrate,
    "rank": _cmd_evaluate,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError, ValueError) as exc:  # config faults were UsageErrors already
        print(f"data error: {exc}", file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
