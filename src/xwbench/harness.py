"""Campaign orchestration, the two performance metrics, and verification.

The quantitative metric is response time per (dataset, engine, query,
matching) cell, split into load, preprocessing overhead (static engine
only) and query time with its phase breakdown.  The qualitative metric
checks each result cube against a recount of the facts by the keys the
checked run resolved: no two groups printed alike, each group's support
and statistics (sums, minima or maxima) equal to its recount's, and the
grand totals equal to each measure column's sum.

Verification machinery lives here too: a brute-force oracle that streams
the documents through ElementTree and regroups exhaustively (sharing only
the readers with the query path), a deliberately broken
double-counting engine used as a negative control, and the report CSV
emission.  A cell compiles its query once (workload.plan_query) and hands
that plan to every run, to the check and to the control.  Every cube, the
oracle's included, is a workload.ResultCube, read in place by the check
and compared by its labelled rows (cubes_match), with no key translated.
"""

from __future__ import annotations

import csv
import json
import operator
import os
import time
import traceback
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from itertools import product
from typing import Iterator, Sequence

from . import engine_pedersen, xmlio
from .engine_qbs import OTHER, component_label
from .errors import BenchmarkError, ConfigurationError, ReferentialError
from .generator import GeneratorConfig, generate_warehouse
from .model import F_QUANTITY, F_TOTALAMOUNT, HierarchyKind, Warehouse, default_model
from .workload import (
    ENGINE_PEDERSEN,
    ENGINE_QBS,
    MATCH_HASH,
    MATCHINGS,
    Entry,
    Query,
    QueryPlan,
    ResultCube,
    aggregate_step,
    plan_query,
    run_query,
    standard_workload,
    validate_query,
)

ENGINE_NAIVE = "naive"
ENGINES = (ENGINE_QBS, ENGINE_PEDERSEN, ENGINE_NAIVE)

# The six-document layout every generated dataset has; generate_dataset
# writes xmlio.STAMP_FILE beside it, for campaigns and `xwbench generate`.
DATASET_FILES = xmlio.layout_files(default_model())


# --- qualitative metric ------------------------------------------------------


@dataclass(frozen=True)
class CorrectnessReport:
    dup_ok: bool
    grand_ok: bool
    avg_ok: bool
    minmax_ok: bool
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.dup_ok and self.grand_ok and self.avg_ok and self.minmax_ok


def _printed_duplicates(entries: dict[tuple, object]) -> int:
    """How many group keys print like another key.  Two keys print alike
    only if two distinct components at one position do, so each position's
    distinct components are labelled once (a string prints as itself), and
    only then are the keys holding a fused set or OTHER labelled whole.  No
    label outlives the call, to share a memory peak with the recount."""
    for column in zip(*entries):
        distinct = set(column)
        others = [c for c in distinct if c.__class__ is not str]
        labels = set(map(component_label, others))
        if len(labels) < len(others) or not labels.isdisjoint(distinct):
            break
    else:
        return 0
    labelled = [key for key in entries if not all(map(str.__instancecheck__, key))]
    labels = {tuple([c if c.__class__ is str else component_label(c) for c in key])
              for key in labelled}
    return len(labelled) - len(labels) + sum(label in entries for label in labels)


def check_correctness(cube: ResultCube, plan: QueryPlan) -> CorrectnessReport:
    """Evaluate the qualitative metric against an independent recount pass.

    The recount groups the facts of `plan` (the plan_query result the cube's
    query was compiled to) by the keys the last run_query over it resolved,
    `plan.resolved`, or, where no run left any, as in the double-counting
    control's cell, by `plan.keys()` taken one at a time as they are zipped
    from the columns.  It keeps per group, in one plain list, its count and
    the one statistic the aggregate needs (sums for SUM and AVG, minima for
    MIN, maxima for MAX), and shares nothing with matching or aggregation;
    resolution itself is judged by comparing engines and by the oracle.
    `chk_grand` compares the cube's grand totals with each measure column's
    sum; one pass compares each group's support and statistics with its
    recount slot.  The cube is read in place, never copied.
    `dup_ok` fails when two of the cube's group keys print the same
    (component_label per component), as a real value "A+B" and the fused
    set {A, B} do, or a real "Other" and OTHER.  A note names a group by its
    labels, as `xwbench oracle` does.  Failures are report content.
    """
    notes: list[str] = []
    entries = cube.entries
    duplicates = _printed_duplicates(entries)
    dup_ok = not duplicates
    if not dup_ok:
        notes.append(f"{duplicates} group key prints like another")

    query = plan.query
    aggregate = query.aggregate
    fold = {"MIN": min, "MAX": max}.get(aggregate, operator.add)
    recount: dict[tuple, list] = {}  # key -> [count, statistic per measure...]
    fact_count = len(plan.facts)
    for key, values in zip(plan.resolved or plan.keys(), plan.values()):
        slot = recount.get(key)
        if slot is None:
            recount[key] = [1, *values]
        else:
            slot[0] += 1
            for i, v in enumerate(values, 1):
                slot[i] = fold(slot[i], v)

    grand_ok = cube.fact_count == fact_count
    if not grand_ok:
        notes.append(f"fact count {cube.fact_count} != {fact_count}")
    if entries.keys() != recount.keys():
        grand_ok = False
        notes.append("group keys differ from recount")
    grands = [sum(plan.facts.measures[m]) for m in query.measures]
    for measure, total, grand in zip(query.measures, cube.grand_totals, grands):
        if total != grand:
            grand_ok = False
            notes.append(f"{measure}: grand total {total} != {grand}")

    # One pass over the groups: each entry's support and statistics against
    # its recount slot.  A group that differs fails the aggregate's own
    # check: chk_grand for SUM, chk_avg for AVG, chk_minmax for MIN and MAX.
    differing = [key for key, entry in entries.items()
                 if [entry.support, *entry.states] != recount.get(key)]
    statistics = {"MIN": "minima", "MAX": "maxima"}.get(aggregate, "sums")
    for key in differing:
        if key in recount:
            entry, (count, *values) = entries[key], recount[key]
            notes.append(f"[{' | '.join(map(component_label, key))}]: support {entry.support}, "
                         f"{statistics} {entry.states} != recount {count}, {values}")
    ok = not differing
    grand_ok &= ok or aggregate != "SUM"
    avg_ok = ok or aggregate != "AVG"
    minmax_ok = ok or aggregate in ("SUM", "AVG")

    return CorrectnessReport(dup_ok, grand_ok, avg_ok, minmax_ok, tuple(notes))


# --- brute-force oracle ------------------------------------------------------


def _elements(fh, tag: str) -> Iterator[ET.Element]:
    """Each `tag` element of the XML document open as `fh`, whole, in
    document order; the root lets go of each once the next is asked for."""
    events = ET.iterparse(fh, ("start", "end"))
    _, root = next(events)
    for event, elem in events:
        if event == "end" and elem.tag == tag:
            yield elem
            root.clear()


def oracle_cube(in_dir: str, query: Query) -> ResultCube:
    """Reference cube by streaming the documents through ElementTree and
    regrouping exhaustively.

    The readers decide what a warehouse is and validate_query what a query
    is: the oracle runs them first, so it accepts exactly what the engines
    accept.  Then it streams each grouped dimension's document, taking each
    instance's fused/OTHER component from its raw rows, and the sales, each
    value (the amount as integer cents, by its own split at the point) into
    its group's column in a plain dict.  Each column is aggregated with sum,
    min or max and summed into the grand totals, and a ResultCube's entries
    are set directly, never through entry_for or aggregate_step.
    A ref joins only the instance whose id it spells exactly.
    """
    model = xmlio.read_metadata(in_dir)
    validate_query(query, model)
    xmlio.load_facts(in_dir, model, ())
    xmlio.load_dimensions(in_dir, model, dict.fromkeys(model.dimension_ids, ()))

    # Per grouped dimension, instance id -> its component at the grouped level.
    components: dict[str, dict[str, object]] = {}
    for dim_id, level in query.grouping:
        joined = components[dim_id] = {}
        with open(os.path.join(in_dir, model.dimension(dim_id).path), "rb") as fh:
            for inst in _elements(fh, "instance"):
                # At instance level, the one member is the instance's id.
                members = {inst.get("id")} if level is None else {
                    {cell.tag: cell.text or "" for cell in row}.get(level, OTHER) for row in inst}
                joined[inst.get("id")] = frozenset(members) if len(members) > 1 else members.pop()

    sales_path = os.path.join(in_dir, model.fact_path)
    groups: dict[tuple, list[list[int]]] = {}
    with open(sales_path, "rb") as fh:
        for sale in _elements(fh, "sale"):
            refs = {d.get("dim"): d.get("idref") for d in sale[2:]}
            units, _, cents = sale[1].text.partition(".")
            measures = {F_QUANTITY: int(sale[0].text),
                        F_TOTALAMOUNT: int(units) * 100 + int(cents)}
            key = []
            for dim_id, _ in query.grouping:
                joined, ref = components[dim_id], refs[dim_id]
                if ref not in joined:
                    raise ReferentialError(
                        f"{sales_path}: dangling dimref {ref!r} for dimension {dim_id!r}")
                key.append(joined[ref])
            columns = groups.setdefault(tuple(key), [[] for _ in query.measures])
            for column, measure in zip(columns, query.measures):
                column.append(measures[measure])

    statistic = {"MIN": min, "MAX": max}.get(query.aggregate, sum)
    cube = ResultCube(query)
    for key, columns in groups.items():
        entry = cube.entries[key] = Entry(query.aggregate, len(columns))
        entry.support = len(columns[0])
        entry.states = list(map(statistic, columns))
        cube.fact_count += entry.support
        cube.grand_totals = [t + sum(c) for t, c in zip(cube.grand_totals, columns)]
    return cube


# --- cube comparison ---------------------------------------------------------


def cubes_match(a: ResultCube, b: ResultCube) -> tuple[bool, list[str]]:
    """Exact cube equality in label space, so qbs, pedersen and oracle cubes
    compare as they are: query shapes, fact counts, grand totals, and the
    labelled rows (ResultCube.rows) as a multiset, so no two rows merge.
    Returns (equal, differences), the rows on one side only, sorted."""
    if (a.query.aggregate, a.query.measures) != (b.query.aggregate, b.query.measures):
        return False, ["query shapes differ"]
    diffs: list[str] = []
    if a.fact_count != b.fact_count:
        diffs.append(f"fact counts differ: {a.fact_count} != {b.fact_count}")
    for measure, ta, tb in zip(a.query.measures, a.grand_totals, b.grand_totals):
        if ta != tb:
            diffs.append(f"grand total {measure} differs")
    count = Counter(a.rows())
    count.subtract(b.rows())
    for side, sign in (("first", 1), ("second", -1)):
        diffs += sorted(f"row only in {side}: {row!r}"
                        for row, n in count.items() for _ in range(sign * n))
    return not diffs, diffs


def qbs_view_of_pedersen(cube: ResultCube) -> ResultCube:
    """`cube` as it is, since cubes_match compares labels.  The only caller
    is perfbench's gate (perfbench/run.py; test_every_name_the_runner_reads_exists
    pins it), and the benchmark change that moves it onto cubes_match deletes this."""
    return cube


# --- negative control ----------------------------------------------------


def double_counting_cube(plan: QueryPlan) -> ResultCube:
    """Deliberately broken engine: every non-strict row aggregates separately.

    Each fact is added once per combination of its instances' row-level
    values instead of once per fused group, re-creating the double counting
    the summarizability engines exist to prevent.  Negative control for the
    correctness checker; never a benchmark subject.  It reads the grouped
    instances of the `plan` (a plan_query result) row by row, never through
    resolve_column; its fact count and totals are run_query's.
    """
    query = plan.query
    cube = ResultCube(query, MATCH_HASH)
    for i, values in enumerate(plan.values()):
        alternatives = []
        for level, index, ordinals in plan.steps:
            inst = index[ordinals[i] - 1]
            if level is None:
                alternatives.append([inst.instance_id])
            else:
                alternatives.append(
                    [row.get(level, OTHER) for row in inst.rows])
        for combo in product(*alternatives):
            aggregate_step(cube.entry_for(combo), values, query.aggregate)
    cube.fact_count = len(plan.facts)
    cube.grand_totals = [sum(plan.facts.measures[m]) for m in query.measures]
    return cube


# --- datasets and campaign -------------------------------------------------


@dataclass(frozen=True)
class DatasetSpec:
    """One benchmark dataset: generator parameters plus a campaign id.  Of
    a layout without a stamp, `run` knows the id alone: the rest is None."""

    id: str
    facts: int | None
    incomplete: int | None = 0
    nonstrict: int | None = 0
    nonstrict_number: int | None = 0
    seed: int | None = 0

    @property
    def regime(self) -> str | None:
        return None if self.facts is None else self.config(None).regime.value

    def validate(self) -> None:
        """Raise ConfigurationError unless the id names one directory (the
        dataset is generated into `data_root/<id>`) and the generator
        accepts the parameters."""
        if (not isinstance(self.id, str) or self.id in ("", ".", "..") or "\0" in self.id
                or os.path.basename(self.id) != self.id):
            raise ConfigurationError(f"dataset id {self.id!r} must name one directory")
        self.config(None).validate()

    def config(self, out_dir: str | None) -> GeneratorConfig:
        return GeneratorConfig(
            fact_number=self.facts,
            incomplete_percentage=self.incomplete,
            nonstrict_percentage=self.nonstrict,
            nonstrict_number=self.nonstrict_number,
            seed=self.seed,
            output_dir=out_dir,
        )


def standard_matrix(facts: int = 1000, seed: int = 42) -> list[DatasetSpec]:
    """The seven-regime dataset grid: simple plus {incomplete, non-strict,
    complex} at 5% and 50%, non-strict instances holding 4 rows."""
    specs = [DatasetSpec(f"simple-{facts}", facts, seed=seed)]
    for pct in (5, 50):
        specs.append(DatasetSpec(f"incomplete{pct}-{facts}", facts,
                                 incomplete=pct, seed=seed))
        specs.append(DatasetSpec(f"nonstrict{pct}-{facts}", facts, nonstrict=pct,
                                 nonstrict_number=4, seed=seed))
        specs.append(DatasetSpec(f"complex{pct}-{facts}", facts, incomplete=pct,
                                 nonstrict=pct, nonstrict_number=4, seed=seed))
    return specs


def _write_stamp(out_dir: str, cfg: GeneratorConfig, transformed: bool) -> None:
    """Write the stamp that read_stamp reads back as (cfg, transformed)."""
    stamp = {k: v for k, v in asdict(cfg).items() if k != "output_dir"}
    with open(os.path.join(out_dir, xmlio.STAMP_FILE), "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"transform_of": stamp} if transformed else stamp,
                            sort_keys=True))


def generate_dataset(cfg: GeneratorConfig) -> Warehouse:
    """Generate `cfg` in place into cfg.output_dir, stamped with its
    provenance: the generator config minus the output path.  write_warehouse
    removes the old stamp first, and the new one is written last, after its
    metadata, so a failed generation leaves no stamp and no readable mix."""
    warehouse = generate_warehouse(cfg)
    _write_stamp(cfg.output_dir, cfg, False)
    return warehouse


def transform_dataset(dir_in: str, dir_out: str) -> engine_pedersen.TransformReport:
    """transform_warehouse, then the output's stamp, written last as
    generate_dataset writes its own: {"transform_of": <config>}, the raw
    generator config that the input's stamp names.  The transform removes
    the output's old stamp first, so an input without a readable stamp, or
    a failed transform, leaves the output without one."""
    report = engine_pedersen.transform_warehouse(dir_in, dir_out)
    if stamp := read_stamp(dir_in):
        _write_stamp(dir_out, stamp[0], True)
    return report


def read_stamp(in_dir: str) -> tuple[GeneratorConfig, bool] | None:
    """(config, transformed): the config `in_dir`'s data was generated from,
    and whether `in_dir` holds a transform's output of it; None without a
    readable stamp.  A stamp the generator would refuse is no stamp either."""
    try:
        with open(os.path.join(in_dir, xmlio.STAMP_FILE), encoding="utf-8") as fh:
            stamp = json.load(fh)
        transformed = isinstance(stamp, dict) and stamp.keys() == {"transform_of"}
        cfg = GeneratorConfig(**(stamp["transform_of"] if transformed else stamp))
        cfg.validate()
        return cfg, transformed
    except (OSError, ValueError, TypeError, ConfigurationError):
        return None


def ensure_dataset(spec: DatasetSpec, data_root: str) -> str:
    """The directory `data_root/<spec.id>`, reused only while all six
    documents and its stamp match `spec`, on the raw side of the transform;
    otherwise generated again in place (generate_dataset), so stale,
    half-written or transformed data is never benchmarked as the dataset."""
    spec.validate()
    out_dir = os.path.join(data_root, spec.id)
    if not (all(os.path.exists(os.path.join(out_dir, name)) for name in DATASET_FILES)
            and read_stamp(out_dir) == (spec.config(None), False)):
        generate_dataset(spec.config(out_dir))
    return out_dir


def infer_regime(in_dir: str) -> str:
    """Instance sweep for a layout's regime.  Only perfbench calls it, and it
    goes with perfbench's `harness.infer_regime_ms` in a benchmark change."""
    model = xmlio.read_metadata(in_dir)
    multi = absent = False
    for schema in model.dimensions:
        for inst in xmlio.iter_instances(in_dir, schema):
            multi = multi or len(inst.rows) > 1
            absent = absent or inst.has_absent_cell(schema)
    return HierarchyKind.of(multi, absent).value


@dataclass
class RunReport:
    """One report row: identity, timings, group count, correctness flags."""

    dataset: str
    regime: str
    facts: int | None
    incomplete_pct: int | None
    nonstrict_pct: int | None
    nonstrict_num: int | None
    engine: str
    matching: str
    query: str
    load_ms: float | None = None
    overhead_ms: float | None = 0.0
    query_ms: float | None = None
    read_ms: float | None = None
    resolve_ms: float | None = None
    match_ms: float | None = None
    agg_ms: float | None = None
    groups: int | None = None
    chk_dup: bool | None = None
    chk_grand: bool | None = None
    chk_avg: bool | None = None
    chk_minmax: bool | None = None
    error: str | None = field(default=None, compare=False)

    @property
    def checks_passed(self) -> bool:
        return all(getattr(self, col) for col in CHECK_COLUMNS)

    def row(self) -> list[str]:
        def fmt(col):
            value = getattr(self, col)
            if self.error is not None and col in CHECK_COLUMNS:
                return "ERR"
            if value is None:
                return ""
            if isinstance(value, bool):
                return "1" if value else "0"
            if isinstance(value, float):
                return f"{value:.3f}"
            return str(value)

        return [fmt(col) for col in REPORT_COLUMNS]


# Every field of a report row but its error, in field order; the check
# columns hold the qualitative metric, one CorrectnessReport flag each.
REPORT_COLUMNS = [f.name for f in fields(RunReport) if f.name != "error"]
CHECK_COLUMNS = tuple(col for col in REPORT_COLUMNS if col.startswith("chk_"))


def _cell_report(spec: DatasetSpec, engine: str, query: Query, matching: str,
                 overhead_ms: float | None = None) -> RunReport:
    """A cell's report row before anything is measured.  A pedersen row
    with no transform timed for it leaves its overhead empty."""
    return RunReport(
        dataset=spec.id, regime=spec.regime, facts=spec.facts,
        incomplete_pct=spec.incomplete, nonstrict_pct=spec.nonstrict,
        nonstrict_num=spec.nonstrict_number, engine=engine, matching=matching,
        query=query.id, overhead_ms=overhead_ms if engine == ENGINE_PEDERSEN else 0.0,
    )


def _check_runs(repeats: int, warmup: int) -> None:
    """Raise ConfigurationError unless `repeats` is an integer of at least 1
    and `warmup` one of at least 0; a bool is not a count."""
    if type(repeats) is not int or repeats < 1:
        raise ConfigurationError(f"repeats must be an integer of at least 1, got {repeats!r}")
    if type(warmup) is not int or warmup < 0:
        raise ConfigurationError(f"warmup must be an integer of at least 0, got {warmup!r}")


def run_cell(spec: DatasetSpec, run_dir: str, engine: str, query: Query,
             matching: str, repeats: int = 3, warmup: int = 1,
             overhead_ms: float | None = None) -> RunReport:
    """One campaign cell: warm-up run discarded, median-of-`repeats` timing.

    The query is compiled once (plan_query, which reads the grouped
    dimensions and the facts, timed as `load_ms` and `read_ms`), and that
    plan is shared by every run of the query and by the correctness check.
    """
    report = _cell_report(spec, engine, query, matching, overhead_ms)
    try:
        _check_runs(repeats, warmup)
        # The naive control groups like qbs, so its cube is checked as qbs's.
        plan = plan_query(query, run_dir, ENGINE_QBS if engine == ENGINE_NAIVE else engine)
        report.load_ms = plan.load_ms
        report.read_ms = plan.read_ms
        if engine == ENGINE_NAIVE:
            start = time.perf_counter()
            cube = double_counting_cube(plan)
            report.query_ms = (time.perf_counter() - start) * 1000.0
        else:
            timings = []
            cube = None
            for i in range(warmup + repeats):
                cube, timing = run_query(query, run_dir, matching=matching, plan=plan)
                if i >= warmup:
                    timings.append(timing)
            timing = sorted(timings, key=lambda t: t.query_ms)[len(timings) // 2]
            report.query_ms = timing.query_ms
            report.resolve_ms = timing.resolve_ms
            report.match_ms = timing.match_ms
            report.agg_ms = timing.agg_ms
        checks = check_correctness(cube, plan)
        report.groups = len(cube.entries)
        report.chk_dup = checks.dup_ok
        report.chk_grand = checks.grand_ok
        report.chk_avg = checks.avg_ok
        report.chk_minmax = checks.minmax_ok
    except BenchmarkError as exc:
        report.error = str(exc)
    except Exception as exc:
        # Anything else is a fault in the program; it too stays in its cell.
        # KeyboardInterrupt is no Exception, so it still ends the campaign.
        where = traceback.extract_tb(exc.__traceback__)[-1]
        report.error = (f"{type(exc).__name__}: {exc} "
                        f"({os.path.basename(where.filename)}:{where.lineno})")
    return report


def write_report(path: str, reports: Sequence[RunReport], append: bool = False) -> None:
    """Write `reports` as CSV rows, after the header if the file is empty."""
    with open(path, "a" if append else "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if fh.tell() == 0:
            writer.writerow(REPORT_COLUMNS)
        for report in reports:
            writer.writerow(report.row())


DATASET_COLUMNS = [
    *REPORT_COLUMNS[:6], "seed",
    *(f"{os.path.splitext(name)[0].replace('-', '_')}_bytes" for name in DATASET_FILES),
    "total_bytes",
]


def write_dataset_sizes(path: str, specs: Sequence[DatasetSpec],
                        dirs: Sequence[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DATASET_COLUMNS)
        for spec, d in zip(specs, dirs):
            sizes = xmlio.document_sizes(d)
            writer.writerow([
                spec.id, spec.regime, spec.facts, spec.incomplete, spec.nonstrict,
                spec.nonstrict_number, spec.seed,
                *(sizes[name] for name in DATASET_FILES), sum(sizes.values()),
            ])


def load_matrix(path: str) -> dict:
    """The campaign matrix in the JSON file at `path`; ConfigurationError,
    naming the place, if the text is not UTF-8, not JSON or not one object."""
    with open(path, encoding="utf-8") as fh:
        try:
            matrix = json.load(fh)
        # Not UTF-8, not JSON, or an integer longer than int() reads.
        except ValueError as exc:
            raise ConfigurationError(f"{path}: {exc}") from None
    if not isinstance(matrix, dict):
        raise ConfigurationError(f"{path}: the matrix is not a JSON object")
    return matrix


def run_campaign(matrix: dict, report_path: str,
                 data_root: str | None = None) -> list[RunReport]:
    """Run every (dataset, engine, query, matching) cell of the matrix.

    The whole matrix is checked first: a bad entry raises ConfigurationError
    before any dataset or report is written.  Then the report's header is
    written, and each dataset is generated or reused under `data_root` and,
    for the static engine, transformed once, its cells sharing the overhead.
    One CSV row per cell lands in report_path as the cell ends, so a campaign
    that stops early keeps every row it computed; the byte sizes of the
    datasets that exist go to `<report stem>-datasets.csv`.  A failure stays
    in its rows and the campaign goes on: a cell's in its row, a dataset's
    generation in all its rows, a transform in its static-engine rows alone.
    """
    unknown = [key for key in matrix if key not in (
        "datasets", "engines", "matching", "queries", "repeats", "warmup")]
    if unknown:
        raise ConfigurationError(f"unknown keys in the matrix: {unknown}")
    try:
        specs = [spec if isinstance(spec, DatasetSpec) else DatasetSpec(**spec)
                 for spec in matrix.get("datasets", [])]
    except TypeError as exc:
        raise ConfigurationError(f"bad campaign matrix: {exc}") from exc
    repeats, warmup = matrix.get("repeats", 3), matrix.get("warmup", 1)
    engines = matrix.get("engines", [ENGINE_QBS, ENGINE_PEDERSEN])
    matchings = matrix.get("matching", [MATCH_HASH])
    known = {query.id: query for query in standard_workload()}
    wanted = matrix.get("queries", "all")
    query_ids = list(known) if wanted == "all" else wanted

    for kind, names, allowed in (
            ("engine", engines, ENGINES),
            ("matching", matchings, MATCHINGS),
            ("query", query_ids, known)):
        if not (isinstance(names, list) and all(isinstance(name, str) for name in names)):
            raise ConfigurationError(f"{kind} names in the matrix are not a list of strings")
        for i, name in enumerate(names):
            if name not in allowed:
                raise ConfigurationError(f"unknown {kind} {name!r} in the matrix")
            if name in names[:i]:
                raise ConfigurationError(f"{kind} {name!r} is listed twice in the matrix")
    _check_runs(repeats, warmup)
    for spec in specs:
        spec.validate()
    # Each dataset, and under pedersen its transform, owns one directory.
    owned = [spec.id for spec in specs]
    if ENGINE_PEDERSEN in engines:
        owned += [f"{spec.id}-pedersen" for spec in specs]
    for name, uses in Counter(owned).items():
        if uses > 1:
            raise ConfigurationError(f"two datasets of the matrix write to {name!r}")
    queries = [known[query_id] for query_id in query_ids]

    write_report(report_path, [])
    data_root = data_root or "datasets"
    # Per dataset and engine, the directory its cells read and the overhead, or
    # the error of the dataset's generation (every row) or transform (pedersen's).
    targets: dict[str, dict[str, tuple[str, float] | BenchmarkError | OSError]] = {}
    made: dict[DatasetSpec, str] = {}
    for spec in specs:
        try:
            d = made[spec] = ensure_dataset(spec, data_root)
        except (BenchmarkError, OSError) as exc:
            targets[spec.id] = dict.fromkeys(engines, exc)
            continue
        targets[spec.id] = dict.fromkeys(engines, (d, 0.0))
        if ENGINE_PEDERSEN in engines:
            out = d + "-pedersen"
            try:
                targets[spec.id][ENGINE_PEDERSEN] = (out, transform_dataset(d, out).overhead_ms)
            except (BenchmarkError, OSError) as exc:
                targets[spec.id][ENGINE_PEDERSEN] = exc
    stem, _ = os.path.splitext(report_path)
    if specs:
        write_dataset_sizes(f"{stem}-datasets.csv", list(made), list(made.values()))

    reports = []
    for spec, engine, matching, query in product(specs, engines, matchings, queries):
        target = targets[spec.id][engine]
        if isinstance(target, Exception):
            report = _cell_report(spec, engine, query, matching)
            report.error = str(target)
        else:
            run_dir, overhead = target
            report = run_cell(spec, run_dir, engine, query, matching,
                              repeats=repeats, warmup=warmup, overhead_ms=overhead)
        write_report(report_path, [report], append=True)
        reports.append(report)
    return reports
