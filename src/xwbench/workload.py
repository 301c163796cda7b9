"""Benchmark queries and the streaming group-by cube computation.

The workload is eight group-by queries, STANDARD_WORKLOAD, in the grammar of
workload files (parse_workload): Q21 groups every dimension at instance
granularity with SUM over both measures; Q22/Q23/Q24 exercise MIN/MAX/AVG at
mixed levels; D1..D4 are the 1-to-4-dimension SUM cubes over the finest
levels, the grouping ladder whose matching cost grows with dimension count.

plan_query compiles a query against one warehouse: it reads the metadata,
validates the query and loads only what the query reads: each grouped
dimension's index, its rows holding the grouped level alone, and the fact
columns (xmlio.load_facts); under pedersen it checks once that the data is a
transform's output.  The plan's `keys()` are the facts' group keys in fact
order, resolved one grouped dimension's column at a time by
engine_qbs.resolve_column for both engines, and `values()` their measures.
Every run_query resolves the keys afresh and leaves them on the plan as
`resolved`, by which the correctness check recounts; the double-counting
control reads the plan's instances, and a campaign cell compiles one plan
for the runs, the check and the control.

run_query makes three timed passes over the fact columns: resolve every
key, match every key to a cube entry under the chosen strategy (a faithful
sequential scan comparing keys entry by entry, or a hash lookup), then
aggregate: aggregate_step adds each fact exactly once to its entry's support
and to one running statistic per measure (AVG keeps SUM's sum), and the
cube's grand totals are one sum per measure column.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Iterator, Sequence

from . import engine_qbs, xmlio
from .errors import ConfigurationError, QueryError
from .model import DimensionInstance, DwModel, F_QUANTITY, F_TOTALAMOUNT

AGGREGATES = ("SUM", "MIN", "MAX", "AVG")

ENGINE_QBS = "qbs"
ENGINE_PEDERSEN = "pedersen"

MATCH_SCAN = "scan"
MATCH_HASH = "hash"
MATCHINGS = (MATCH_SCAN, MATCH_HASH)

STANDARD_WORKLOAD = """\
# id  aggregate  measures                  grouping
Q21   SUM        f_quantity,f_totalamount  part,customer,supplier,date
Q22   MIN        f_quantity                customer.nation,part.type3,supplier.nation,date.day
Q23   MAX        f_totalamount             date.month,part.type2,supplier.nation,customer.region
Q24   AVG        f_totalamount             supplier.region,part.type1,customer.region,date.year
D1    SUM        f_quantity,f_totalamount  date.day
D2    SUM        f_quantity,f_totalamount  part.type3,date.day
D3    SUM        f_quantity,f_totalamount  part.type3,customer.nation,date.day
D4    SUM        f_quantity,f_totalamount  part.type3,customer.nation,supplier.nation,date.day
"""


@dataclass(frozen=True)
class Query:
    """A group-by query descriptor: aggregate, measures, grouping levels."""

    id: str
    aggregate: str
    measures: tuple[str, ...]
    grouping: tuple[tuple[str, str | None], ...]

    @property
    def grouped_dimensions(self) -> frozenset[str]:
        return frozenset(dim_id for dim_id, _ in self.grouping)


def validate_query(query: Query, model: DwModel) -> None:
    if query.aggregate not in AGGREGATES:
        raise QueryError(f"unknown aggregate {query.aggregate!r}")
    if not query.measures:
        raise QueryError(f"query {query.id!r} selects no measures")
    # A fact record carries exactly these two measures, whatever else the
    # metadata declares.
    for measure in query.measures:
        if measure not in model.measures or measure not in (F_QUANTITY, F_TOTALAMOUNT):
            raise QueryError(f"unknown measure {measure!r}")
    if len(set(query.measures)) != len(query.measures):
        raise QueryError(f"query {query.id!r} selects a measure twice")
    seen = set()
    for dim_id, level in query.grouping:
        if dim_id in seen:
            raise QueryError(f"query {query.id!r} groups dimension {dim_id!r} twice")
        seen.add(dim_id)
        try:
            schema = model.dimension(dim_id)
        except KeyError:
            raise QueryError(f"unknown dimension {dim_id!r}")
        if level is not None and level not in schema.levels:
            raise QueryError(f"dimension {dim_id!r} has no level {level!r}")


def standard_workload() -> list[Query]:
    return parse_workload(STANDARD_WORKLOAD)


def get_query(query_id: str, queries: Iterable[Query] | None = None) -> Query:
    for query in queries if queries is not None else standard_workload():
        if query.id == query_id:
            return query
    raise QueryError(f"unknown query {query_id!r}")


def parse_query_line(line: str) -> Query:
    """One query per line: `id aggregate measure[,measure] dim.level[,...]`.

    A bare dimension name (or `dim.instance`) groups at instance
    granularity; `-` as the grouping field means no grouping (grand total).
    """
    fields = line.split()
    if len(fields) != 4:
        raise QueryError(f"workload line needs 4 fields, got {len(fields)}: {line!r}")
    qid, aggregate, measure_field, grouping_field = fields
    measures = tuple(measure_field.split(","))
    grouping: list[tuple[str, str | None]] = []
    if grouping_field != "-":
        for token in grouping_field.split(","):
            dim, sep, level = token.partition(".")
            if not dim:
                raise QueryError(f"bad grouping token {token!r} in line {line!r}")
            grouping.append((dim, None if not sep or level == "instance" else level))
    return Query(qid, aggregate.upper(), measures, tuple(grouping))


def parse_workload(text: str) -> list[Query]:
    """The queries of a workload text, one per line; blank lines and lines
    starting with `#` are skipped.  Two queries may not share an id."""
    queries = [parse_query_line(line) for line in map(str.strip, text.split("\n"))
               if line and not line.startswith("#")]
    ids = [query.id for query in queries]
    for i, query_id in enumerate(ids):
        if query_id in ids[:i]:
            raise QueryError(f"query id {query_id!r} is used twice in the workload")
    return queries


def load_workload(path: str) -> list[Query]:
    """The queries of the workload file at `path`; ConfigurationError,
    naming the file, if its text is not UTF-8."""
    with open(path, encoding="utf-8") as fh:
        try:
            return parse_workload(fh.read())
        except UnicodeDecodeError as exc:
            raise ConfigurationError(f"{path}: {exc}") from None


# --- cubes -------------------------------------------------------------------


class Entry:
    """One cube entry: its support (how many facts it holds) and one running
    statistic per measure, the sum for SUM and AVG, the least value for MIN
    and the greatest for MAX."""

    __slots__ = ("support", "states")

    def __init__(self, aggregate: str, width: int):
        self.support = 0
        self.states = [None if aggregate in ("MIN", "MAX") else 0] * width

    def values(self, aggregate: str) -> tuple[float, ...]:
        """The entry's aggregate per measure; AVG is the sum over the support."""
        if aggregate == "AVG":
            return tuple(total / self.support for total in self.states)
        return tuple(self.states)


def aggregate_step(entry: Entry, values: Sequence[int], aggregate: str) -> Entry:
    """Fold one fact into the entry: its measure values into the statistics,
    and the fact itself into the support."""
    states = entry.states
    if aggregate == "SUM" or aggregate == "AVG":
        for i, v in enumerate(values):
            states[i] += v
    elif aggregate == "MIN":
        for i, v in enumerate(values):
            if states[i] is None or v < states[i]:
                states[i] = v
    elif aggregate == "MAX":
        for i, v in enumerate(values):
            if states[i] is None or v > states[i]:
                states[i] = v
    else:
        raise QueryError(f"unknown aggregate {aggregate!r}")
    entry.support += 1
    return entry


class ResultCube:
    """Group keys mapped to aggregates, built under a matching strategy; the
    one cube form, which run_query, the oracle and the negative control
    build and the checks read in place.

    The hash strategy locates entries by key digest; the scan strategy keeps
    insertion-ordered keys and compares each candidate key whole against the
    probe (the expensive matching the benchmark is designed to expose).
    Under either strategy `entries` maps every group key to its entry, in
    first-seen order.  Whoever builds the cube sets `fact_count`, the facts
    it grouped, and `grand_totals`, each measure's total over every fact,
    in `query.measures` order.
    """

    def __init__(self, query: Query, matching: str = MATCH_HASH):
        if matching not in MATCHINGS:
            raise QueryError(f"unknown matching strategy {matching!r}")
        self.query = query
        self.matching = matching
        self.fact_count = 0
        self.grand_totals = [0] * len(query.measures)
        self.entries: dict[tuple, Entry] = {}
        self._scan_keys: list[tuple] = []
        self._scan_entries: list[Entry] = []

    def entry_for(self, key: tuple) -> Entry:
        if self.matching == MATCH_HASH:
            entry = self.entries.get(key)
            if entry is None:
                entry = Entry(self.query.aggregate, len(self.query.measures))
                self.entries[key] = entry
            return entry
        try:
            return self._scan_entries[self._scan_keys.index(key)]
        except ValueError:
            entry = Entry(self.query.aggregate, len(self.query.measures))
            self._scan_keys.append(key)
            self._scan_entries.append(entry)
            self.entries[key] = entry
            return entry


# --- query execution ---------------------------------------------------------


@dataclass(frozen=True)
class QueryTiming:
    """Wall-clock run breakdown in milliseconds.

    `query_ms` is the sum of three sequential passes over the facts:
    resolving every group key (where the query-time engine does its
    summarizability work), matching every key to a cube entry, and
    aggregating.  Loading is the plan's, once per plan (QueryPlan.load_ms
    and read_ms).
    """

    query_ms: float
    resolve_ms: float
    match_ms: float
    agg_ms: float


@dataclass(frozen=True)
class QueryPlan:
    """A query compiled against one warehouse; built by plan_query, and
    shared by every run, check and control over that warehouse.

    `steps` holds one (level, index, ordinals) per grouped dimension, in
    grouping order: `index` rows hold `level`'s cell only (none at instance
    granularity), as dicts shared between rows that no one may change, and
    `ordinals` is the dimension's column of `facts`.  Membership is still
    resolved per run, by engine_qbs.resolve_column for either engine, and
    `resolved` holds the keys the last run_query over the plan resolved, in
    fact order (empty before any run): each run empties it and then fills it
    inside its resolve timer, so the plan never holds two key lists.
    """

    query: Query
    facts: xmlio.FactColumns
    steps: tuple[tuple[str | None, list[DimensionInstance], Sequence[int]], ...]
    load_ms: float
    read_ms: float
    resolved: list[tuple] = field(default_factory=list, init=False, repr=False,
                                  compare=False)

    def keys(self) -> Iterator[tuple]:
        """Every fact's group key, in fact order: one component per grouped
        dimension, each dimension resolved as one column when called.  The
        keys are zipped from the columns as they are read, so a consumer
        that does not keep them never holds them all."""
        if not self.steps:
            return repeat((), len(self.facts))
        return zip(*[engine_qbs.resolve_column(index, ordinals, level)
                     for level, index, ordinals in self.steps])

    def values(self) -> Iterator[tuple[int, ...]]:
        """Every fact's measures, in fact order, as a tuple of integers
        (the amount in cents) in `query.measures` order."""
        return zip(*[self.facts.measures[m] for m in self.query.measures])


def plan_query(query: Query, in_dir: str, engine: str = ENGINE_QBS) -> QueryPlan:
    """Compile `query` against the warehouse in `in_dir`, loading the
    grouped dimensions' indexes projected onto the grouped levels (timed as
    `load_ms`) and the fact columns, filled from the sale matches
    (`read_ms`).  Nothing is resolved at load.

    `engine` says which data the plan expects: "qbs" any warehouse;
    "pedersen" transform_warehouse output, where each instance of a dimension
    grouped at a level is one row holding the level.  That, and every
    reference to a grouped dimension, is checked here, so an untransformed
    instance raises ConfigurationError and a dangling reference
    ReferentialError before any fact is grouped.
    """
    if engine not in (ENGINE_QBS, ENGINE_PEDERSEN):
        raise ConfigurationError(f"unknown engine {engine!r}")

    model = xmlio.read_metadata(in_dir)
    validate_query(query, model)

    # A grouped dimension's rows keep its grouped level, or none at all.
    keep = {dim_id: () if level is None else (level,) for dim_id, level in query.grouping}
    t0 = time.perf_counter()
    indexes = xmlio.load_dimensions(in_dir, model, keep)
    t1 = time.perf_counter()
    facts = xmlio.load_facts(in_dir, model, query.grouped_dimensions)
    t2 = time.perf_counter()
    steps = []
    for dim_id, level in query.grouping:
        index = indexes[dim_id]
        facts.check_refs(dim_id, len(index))
        if engine == ENGINE_PEDERSEN and level is not None:
            for inst in index:
                if len(inst.rows) != 1 or level not in inst.rows[0]:
                    raise ConfigurationError(
                        f"instance {inst.instance_id!r} is not one row holding {level!r}; "
                        "this warehouse is not the output of transform_warehouse")
        steps.append((level, index, facts.ordinals[dim_id]))
    return QueryPlan(query, facts, tuple(steps), (t1 - t0) * 1000.0, (t2 - t1) * 1000.0)


def run_query(query: Query, in_dir: str, engine: str = ENGINE_QBS,
              matching: str = MATCH_HASH, plan: QueryPlan | None = None,
              ) -> tuple[ResultCube, QueryTiming]:
    """Build the query's result cube in three timed passes over the facts:
    resolve every group key, match every key to a cube entry, aggregate.

    `engine` as for plan_query; `matching` picks the group-matching
    strategy.  A `plan` from plan_query is run as given, and its query is
    the one run; without one, `query` is compiled against `in_dir`.
    """
    if plan is None:
        plan = plan_query(query, in_dir, engine)
    query = plan.query
    aggregate = query.aggregate
    cube = ResultCube(query, matching)
    pc = time.perf_counter
    keys = plan.resolved
    keys.clear()
    t0 = pc()
    keys.extend(plan.keys())
    t1 = pc()
    entry_for = cube.entry_for
    entries = [entry_for(key) for key in keys]
    t2 = pc()
    for entry, values in zip(entries, plan.values()):
        aggregate_step(entry, values, aggregate)
    cube.fact_count = len(entries)
    cube.grand_totals = [sum(plan.facts.measures[m]) for m in query.measures]
    t3 = pc()
    resolve_ms, match_ms, agg_ms = ((t1 - t0) * 1000.0, (t2 - t1) * 1000.0,
                                    (t3 - t2) * 1000.0)
    return cube, QueryTiming(resolve_ms + match_ms + agg_ms, resolve_ms, match_ms, agg_ms)
