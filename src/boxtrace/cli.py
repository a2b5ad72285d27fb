"""Command-line front end: parse and dump containers, train and persist
models, classify files with explanations, run evaluations, emit LLR
reports, and generate synthetic corpora."""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

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
    run_scenario,
    scenario_names,
)
from .fixtures import FixtureSpec, generate_corpus
from .llr import DEFAULT_TAU, FilterConfig, llr_report, report_tsv
from .modelfile import classify_symbols, load_model, save_model, train_matrix
from .symbols import dump_symbols, file_symbols
from .tree import TreeParams, preorder, to_dot

EXIT_OK = 0
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
_MAX_DEPTH = _checked(int, lambda v: v >= 0, "an integer of at least 0")
_POSITIVE_INT = _checked(int, lambda v: v >= 1, "an integer of at least 1")
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
    manifest = _load_manifest(args.manifest)
    rows, symbols, counts, labels = labeled_matrix(manifest, args.scenario)
    mf = train_matrix(symbols, counts, labels, tau=args.tau,
                      params=_tree_params(args), scenario=args.scenario.name,
                      manifest_digest=digest_rows(rows))
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


def _classify_one(mf, file_name, explain, tested):
    record: dict = {"file": file_name, "model": mf.file_digest}
    try:
        symbols = file_symbols(file_name, only=tested)[0]
        verdict, steps = classify_symbols(mf, symbols)
    except (ParseError, DataError, OSError) as exc:
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record
    record["prediction"] = verdict
    if explain:
        record["path"] = [
            {"symbol": s.symbol, "threshold": s.threshold,
             "count": s.count, "branch": s.branch}
            for s in steps
        ]
    return record


def cmd_classify(args) -> int:
    mf = load_model(args.model)
    # A verdict and its path read only the counts of the split symbols.
    model = mf.model
    tested = frozenset(model.vocabulary.symbols[node.split.feature_index]
                       for node in preorder(model.root) if not node.is_leaf)
    for file_name in args.files:
        record = _classify_one(mf, file_name, args.explain, tested)
        print(json.dumps(record, sort_keys=True))
    return EXIT_OK


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
    _, symbols, counts, labels = labeled_matrix(manifest, args.scenario)
    report = llr_report(symbols, counts, labels, FilterConfig(args.tau))
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

    p = sub.add_parser("parse", parents=[], help="dump a file's box tree "
                       "or its symbol multiset")
    p.add_argument("file")
    p.add_argument("--symbols", action="store_true",
                   help="dump the symbol multiset instead of the box tree")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("train", help="train a model on a full manifest")
    p.add_argument("manifest")
    p.add_argument("--scenario", type=_scenario, required=True,
                   help=f"one of: {', '.join(scenario_names())}")
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

    p = sub.add_parser("evaluate", help="leave-one-device-out evaluation")
    p.add_argument("manifest")
    p.add_argument("--scenario", type=_scenario, required=True,
                   help=f"one of: {', '.join(scenario_names())}")
    _add_training_flags(p)
    p.add_argument("--report", type=_PATH,
                   help="also write the report as JSON here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("llr-report", help="per-symbol log-likelihood ratios")
    p.add_argument("manifest")
    p.add_argument("--scenario", type=_scenario, required=True,
                   help=f"one of: {', '.join(scenario_names())}")
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
        return args.func(args)
    except ParseError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DataError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
