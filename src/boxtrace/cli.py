"""Command-line front end: parse and dump containers, train and persist
models, classify files with explanations, run evaluations, emit LLR
reports, and generate synthetic corpora."""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections import Counter
from pathlib import Path
from typing import Iterator

from .bmff import dump_tree, parse_file
from .errors import DataError, ParseError, UnknownEnum
from .evaluate import (
    Scenario,
    digest_rows,
    format_report_text,
    get_scenario,
    labeled_matrix,
    load_manifest,
    report_to_obj,
    row_counts,
    run_scenario,
    scenario_names,
)
from .fixtures import FixtureSpec, generate_corpus
from .llr import DEFAULT_TAU, FilterConfig, llr_report, report_tsv
from .modelfile import (
    ModelFile,
    _json_str,
    classify_symbols,
    load_model,
    resolve_timestamp,
    save_model,
    train_matrix,
)
from .symbols import _MEMO_COLUMNS, _decoded_boxes, _file_boxes
from .symbols import dump_symbols, file_symbols
from .tree import PathStep, TreeParams, _is_int, preorder, to_dot

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PARSE = 2
EXIT_USAGE = 64
EXIT_DATA = 65


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with the sysexits-style usage code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _scenario(name: str) -> Scenario:
    try:
        return get_scenario(name)
    except UnknownEnum as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _checked(convert, accept, what: str):
    """An argparse type: `convert` the text, then reject a value that
    `accept` refuses as not `what`."""
    def parse(text: str):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value

    parse.__name__ = convert.__name__  # argparse names it on a ValueError
    return parse


_TAU = _checked(float, lambda v: math.isfinite(v) and v > 0,
                "a finite number above 0")
_CCP_ALPHA = _checked(float, lambda v: math.isfinite(v) and v >= 0,
                      "a finite number of at least 0")
_MAX_DEPTH = _checked(int, lambda v: _is_int(v) and v >= 0,
                      "a finite integer of at least 0")
_POSITIVE_INT = _checked(int, lambda v: _is_int(v) and v >= 1,
                         "a finite integer of at least 1")
_PATH = _checked(str, lambda v: "\0" not in v, "a path: it holds a NUL byte")


def _tree_params(args) -> TreeParams:
    return TreeParams(max_depth=args.max_depth,
                      min_samples_leaf=args.min_samples_leaf,
                      ccp_alpha=args.ccp_alpha)


def _add_training_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tau", type=_TAU, default=DEFAULT_TAU,
                        help="LLR filter threshold (default %(default)s)")
    parser.add_argument("--ccp-alpha", type=_CCP_ALPHA, default=0.0,
                        help="cost-complexity pruning strength (default 0)")
    parser.add_argument("--max-depth", type=_MAX_DEPTH, default=None,
                        help="tree depth cap (default unlimited)")
    parser.add_argument("--min-samples-leaf", type=_POSITIVE_INT, default=1,
                        help="minimum samples per leaf (default 1)")


def cmd_parse(args) -> int:
    if args.symbols:
        symbols, warnings = file_symbols(args.file)
        out = dump_symbols(symbols)
    else:
        tree = parse_file(args.file)
        warnings, out = tree.warnings, dump_tree(tree, format=args.format)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    sys.stdout.write(out)
    return EXIT_OK


def _load_manifest(path: str):
    """`load_manifest`, with the manifest's warnings printed on stderr."""
    manifest = load_manifest(path)
    for warning in manifest.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return manifest


def cmd_train(args) -> int:
    # A malformed SOURCE_DATE_EPOCH fails before any file is read.
    trained_at = resolve_timestamp()
    manifest = _load_manifest(args.manifest)
    rows, symbols, counts, row_of, labels = labeled_matrix(manifest,
                                                           args.scenario)
    mf = train_matrix(symbols, row_counts(counts, row_of), labels,
                      tau=args.tau, params=_tree_params(args),
                      scenario=args.scenario.name,
                      manifest_digest=digest_rows(rows),
                      trained_at=trained_at)
    if len(mf.model.vocabulary) == 0:
        print(f"warning: tau={args.tau:g} filtered out every symbol; "
              f"the model is a single majority-class leaf", file=sys.stderr)
    save_model(mf, args.out)
    if args.dot:
        Path(args.dot).write_text(to_dot(mf.model), encoding="utf-8")
    print(f"trained on {len(labels)} files, "
          f"{len(mf.model.vocabulary)}/{len(mf.full_vocabulary)} symbols kept, "
          f"classes: {', '.join(mf.model.classes)}", file=sys.stderr)
    return EXIT_OK


def _error_line(file_name: str, digest: str, error: str) -> str:
    """`json.dumps(record, sort_keys=True)` of an error record and a
    newline, written directly."""
    return (f'{{"error": {_json_str(error)}, "file": {_json_str(file_name)}, '
            f'"model": {_json_str(digest)}}}\n')


def _verdict_line(file_name: str, digest: str, verdict: str,
                  steps: list[PathStep] | None) -> str:
    """`json.dumps(record, sort_keys=True)` of a verdict, with its path
    when `steps` is given, and a newline, written directly: keys in sorted
    order, and counts and thresholds by `repr`, as `json` writes an int
    and a finite float."""
    path = "" if steps is None else ', "path": [' + ", ".join([
        f'{{"branch": "{branch}", "count": {count!r}, '
        f'"symbol": {_json_str(symbol)}, "threshold": {threshold!r}}}'
        for symbol, threshold, count, branch in steps]) + "]"
    return (f'{{"file": {_json_str(file_name)}, "model": {_json_str(digest)}'
            f'{path}, "prediction": {_json_str(verdict)}}}\n')


# Box numbers of the keys plus characters of the record tails that one
# `classify` call keeps at most. A 64-file seed-7 `triage` batch keeps 1
# to 7 tails, 293 to 2838 in all; an `--explain` tail has 292 to 489.
_MEMO_TAILS = 1 << 16


def cmd_classify(args) -> int:
    mf = load_model(args.model)
    sys.stdout.writelines(_record_lines(mf, args.files, args.explain))
    return EXIT_OK


def _record_lines(mf: ModelFile, files: list[str],
                  explain: bool) -> Iterator[str]:
    """The record line of each of `files`. Only the boxes the tree tests
    are decoded, each distinct one once per call, numbered as in
    `file_count_matrix`. A file whose tested boxes all have numbers is
    keyed by the tuple of them, and its record's tail after the file name
    is built once per key. Every file is still walked to its end."""
    # A verdict and its path read only the counts of the split symbols.
    tested = frozenset(mf.model.vocabulary.symbols[node.split.feature_index]
                       for node in preorder(mf.model.root) if not node.is_leaf)
    decode = _decoded_boxes(tested)
    column = {s: n for n, s in enumerate(tested)}  # other symbols: len(column)
    memo, boxes, room = {}, [], _MEMO_COLUMNS  # as in `file_count_matrix`
    tails, tail_room = {}, _MEMO_TAILS  # box numbers -> record tail
    for file_name in files:
        first = len(boxes)
        try:
            numbers, loose, room = _file_boxes(file_name, column, memo,
                                               boxes, room, decode)
        except (ParseError, DataError, OSError) as exc:
            room -= sum(map(len, boxes[first:])) // 4  # met before the error
            yield _error_line(file_name, mf.file_digest,
                              f"{type(exc).__name__}: {exc}")
            continue
        head = f'{{"file": {_json_str(file_name)}'
        key = None if loose is not None else tuple(numbers)
        tail = tails.get(key)
        if tail is None:
            counts = Counter(memoryview(b"".join(
                map(boxes.__getitem__, numbers)) + (loose or b"")).cast("i"))
            verdict, steps = classify_symbols(mf, Counter({
                s: counts[n] for s, n in column.items()}))
            tail = _verdict_line(file_name, mf.file_digest, verdict,
                                 steps if explain else None)[len(head):]
            if key is not None and len(key) + len(tail) <= tail_room:
                tails[key] = tail
                tail_room -= len(key) + len(tail)
        yield head + tail


def cmd_evaluate(args) -> int:
    manifest = _load_manifest(args.manifest)
    report = run_scenario(manifest, args.scenario,
                          filter_cfg=FilterConfig(args.tau),
                          tree_params=_tree_params(args))
    sys.stdout.write(format_report_text(report))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report_to_obj(report), handle, indent=2)
            handle.write("\n")
    return EXIT_OK


def cmd_llr_report(args) -> int:
    manifest = _load_manifest(args.manifest)
    _, symbols, counts, row_of, labels = labeled_matrix(manifest,
                                                        args.scenario)
    report = llr_report(symbols, row_counts(counts, row_of), labels,
                        FilterConfig(args.tau))
    sys.stdout.write(report_tsv(report))
    return EXIT_OK


def cmd_make_fixtures(args) -> int:
    spec = FixtureSpec(seed=args.seed, videos_per_cell=args.videos_per_cell)
    manifest = generate_corpus(spec, args.out_dir)
    print(f"wrote {len(manifest.rows)} files and {manifest.path}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and building it costs more than classifying a batch's
    first few files."""
    parser = _ArgumentParser(
        prog="boxtrace",
        description="Classify a video file's processing history from its "
                    "container structure alone.")
    sub = parser.add_subparsers(dest="command", required=True)
    # The arguments of every command that reads a manifest's scenario.
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("manifest")
    scenario.add_argument("--scenario", type=_scenario, required=True,
                          help=f"one of: {', '.join(scenario_names())}")

    p = sub.add_parser("parse", help="dump a file's box tree "
                       "or its symbol multiset")
    p.add_argument("file")
    p.add_argument("--symbols", action="store_true",
                   help="dump the symbol multiset instead of the box tree")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("train", parents=[scenario],
                       help="train a model on a full manifest")
    _add_training_flags(p)
    p.add_argument("--out", type=_PATH, required=True,
                   help="model file to write")
    p.add_argument("--dot", type=_PATH,
                   help="also write a Graphviz rendering here")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("classify", help="classify files with a trained model")
    p.add_argument("model")
    p.add_argument("files", nargs="+")
    p.add_argument("--explain", action="store_true",
                   help="include the decision path in each verdict")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("evaluate", parents=[scenario],
                       help="leave-one-device-out evaluation")
    _add_training_flags(p)
    p.add_argument("--report", type=_PATH,
                   help="also write the report as JSON here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("llr-report", parents=[scenario],
                       help="per-symbol log-likelihood ratios")
    p.add_argument("--tau", type=_TAU, default=DEFAULT_TAU)
    p.set_defaults(func=cmd_llr_report)

    p = sub.add_parser("make-fixtures",
                       help="generate a synthetic labeled corpus")
    p.add_argument("out_dir", type=_PATH)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--videos-per-cell", type=_POSITIVE_INT, default=4)
    p.set_defaults(func=cmd_make_fixtures)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # Any write to a closed pipe fails here, not at interpreter exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed standard output (`| head`). Exit 1 without a
        # message, and send what is still buffered to /dev/null, so the
        # flush at exit does not fail again (the recipe in Python's
        # `signal` documentation).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_FAILURE
    except ParseError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DataError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
