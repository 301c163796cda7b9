"""Command-line front end.

Subcommands: generate (build a dataset), transform (static preprocessing),
run (execute queries and append report rows), oracle (print the brute-force
reference cube), campaign (run a whole matrix from a JSON file).

Exit codes: 0 ok, 1 usage, 2 data error, 3 correctness failure under
--strict.  `run` goes on past a failed query, writes it as an ERR row and
then exits 2.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import harness, xmlio
from .errors import BenchmarkError, ConfigurationError
from .generator import GeneratorConfig
from .harness import DatasetSpec
from .model import F_TOTALAMOUNT
from .workload import (ENGINE_QBS, MATCH_HASH, MATCHINGS, get_query, load_workload,
                       standard_workload)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CORRECTNESS = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="xwbench",
                     description="XML warehouse benchmark with complex hierarchies")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("generate", help="generate a warehouse dataset")
    p.add_argument("--facts", type=int, required=True)
    p.add_argument("--incomplete", type=int, default=0, metavar="PCT")
    p.add_argument("--nonstrict", type=int, default=0, metavar="PCT")
    p.add_argument("--nonstrict-number", type=int, default=0, metavar="K")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, metavar="DIR")

    p = sub.add_parser("transform", help="make hierarchies covering and strict")
    p.add_argument("--in", dest="in_dir", required=True, metavar="DIR")
    p.add_argument("--out", required=True, metavar="DIR")

    p = sub.add_parser("run", help="run workload queries over a dataset")
    p.add_argument("--in", dest="in_dir", required=True, metavar="DIR")
    p.add_argument("--engine", choices=harness.ENGINES, default=ENGINE_QBS)
    p.add_argument("--query", default="all", metavar="ID|all")
    p.add_argument("--matching", choices=MATCHINGS, default=MATCH_HASH)
    p.add_argument("--report", metavar="FILE", help="append one CSV row per query")
    p.add_argument("--workload", metavar="FILE",
                   help="load query descriptors from a workload file")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 if any correctness check fails")

    p = sub.add_parser("oracle", help="print the brute-force reference cube")
    p.add_argument("--in", dest="in_dir", required=True, metavar="DIR")
    p.add_argument("--query", required=True, metavar="ID")

    p = sub.add_parser("campaign", help="run a benchmark matrix from a JSON file")
    p.add_argument("--matrix", required=True, metavar="FILE")
    p.add_argument("--report", required=True, metavar="FILE")
    p.add_argument("--data-dir", metavar="DIR", default=None)
    return parser


def _cmd_generate(args) -> int:
    cfg = GeneratorConfig(args.facts, args.incomplete, args.nonstrict,
                          args.nonstrict_number, args.seed, args.out)
    try:
        cfg.validate()
    except ConfigurationError as exc:
        print(f"xwbench generate: {exc}", file=sys.stderr)
        return EXIT_USAGE
    warehouse = harness.generate_dataset(cfg)
    sizes = xmlio.document_sizes(args.out)
    print(f"generated {len(warehouse.facts)} facts "
          f"({4 * len(warehouse.facts)} dimension instances), "
          f"regime {cfg.regime.value}, seed {cfg.seed}")
    for name, size in sizes.items():
        print(f"  {name}: {size} bytes")
    return EXIT_OK


def _cmd_transform(args) -> int:
    report = harness.transform_dataset(args.in_dir, args.out)
    print(f"transformed in {report.overhead_ms:.1f} ms: "
          f"{report.instances_covered} instances covered, "
          f"{report.instances_fused} fused")
    for dim, levels in report.fused_levels.items():
        print(f"  {dim}: inserted {', '.join(levels)}")
    return EXIT_OK


def _cmd_run(args) -> int:
    queries = load_workload(args.workload) if args.workload else standard_workload()
    if args.query != "all":
        queries = [get_query(args.query, queries)]
    # The raw data's parameters, on either side of the transform, or unknown.
    stamp = harness.read_stamp(args.in_dir)
    cfg = stamp and stamp[0]
    dataset = DatasetSpec(os.path.basename(os.path.realpath(args.in_dir)),
                          *((cfg.fact_number, cfg.incomplete_percentage,
                             cfg.nonstrict_percentage, cfg.nonstrict_number, cfg.seed)
                            if cfg else (None,) * 5))
    failed = errored = False
    for query in queries:
        report = harness.run_cell(dataset, args.in_dir, args.engine, query,
                                  args.matching, repeats=1, warmup=0)
        # Each row lands as its query ends, so an interrupt keeps the rows before it.
        if args.report:
            harness.write_report(args.report, [report], append=True)
        if report.error is not None:
            errored = True
            print(f"xwbench run: {query.id}: {report.error}", file=sys.stderr)
            continue
        status = "ok" if report.checks_passed else "CHECKS FAILED"
        failed = failed or not report.checks_passed
        print(f"{query.id}: {report.groups} groups, "
              f"query {report.query_ms:.1f} ms, checks {status}")
    if errored:
        return EXIT_DATA
    if args.strict and failed:
        return EXIT_CORRECTNESS
    return EXIT_OK


def _exact(measure: str, value: int | float) -> str:
    """An aggregate printed exactly, an amount's cents in currency units."""
    if isinstance(value, float):
        return repr(value / 100 if measure == F_TOTALAMOUNT else value)
    if measure == F_TOTALAMOUNT:
        return xmlio.format_amount(value).rstrip("0").rstrip(".")
    return str(value)


def _cmd_oracle(args) -> int:
    query = get_query(args.query)
    cube = harness.oracle_cube(args.in_dir, query)
    print(f"{query.id}: {cube.fact_count} facts, {len(cube.entries)} groups")
    for labels, support, values in sorted(cube.rows()):
        label = " | ".join(labels) or "(grand total)"
        values = ", ".join(f"{m}={_exact(m, v)}" for m, v in zip(query.measures, values))
        print(f"  [{label}] support={support} {values}")
    return EXIT_OK


def _cmd_campaign(args) -> int:
    matrix = harness.load_matrix(args.matrix)
    reports = harness.run_campaign(matrix, args.report, data_root=args.data_dir)
    errors = sum(1 for r in reports if r.error is not None)
    print(f"campaign: {len(reports)} cells -> {args.report}"
          + (f" ({errors} failed)" if errors else ""))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "generate": _cmd_generate,
        "transform": _cmd_transform,
        "run": _cmd_run,
        "oracle": _cmd_oracle,
        "campaign": _cmd_campaign,
    }[args.command]
    try:
        return handler(args)
    except BenchmarkError as exc:
        print(f"xwbench {args.command}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except BrokenPipeError:
        # stdout consumer (e.g. head) went away; not an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except OSError as exc:
        print(f"xwbench {args.command}: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
