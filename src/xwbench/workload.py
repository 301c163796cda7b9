"""Benchmark queries and the streaming group-by cube computation.

The workload is eight group-by queries: Q21 groups every dimension at
instance granularity with SUM over both measures; Q22/Q23/Q24 exercise
MIN/MAX/AVG at mixed levels; D1..D4 are the 1-to-4-dimension SUM cubes over
the finest levels (day, type3, customer nation, supplier nation), the
grouping ladder whose matching cost grows with dimension count.

plan_query compiles a query against one warehouse: it reads the metadata,
validates the query, picks the engine's column resolver and loads the
grouped dimensions' indexes and the fact columns (xmlio.load_facts).  The
plan's `keys()` are the facts' group keys in fact order, resolved one
grouped dimension's column at a time (by the query-time engine, or by plain
cell reads over pretransformed data), and `values()` their measures;
run_query, the correctness check and the double-counting control all group
facts through a plan, and a campaign cell compiles one plan for all of them.

run_query makes three timed passes over the fact columns: resolve every
key, match every key to a cube entry under the chosen strategy (a faithful
sequential scan comparing keys entry by entry, or a hash lookup), then
aggregate, each fact contributing its measures exactly once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable, Iterator, Sequence

from . import engine_pedersen, engine_qbs, xmlio
from .errors import ConfigurationError, QueryError
from .model import DimensionInstance, DwModel, F_QUANTITY, F_TOTALAMOUNT

AGGREGATES = ("SUM", "MIN", "MAX", "AVG")

ENGINE_QBS = "qbs"
ENGINE_PEDERSEN = "pedersen"

MATCH_SCAN = "scan"
MATCH_HASH = "hash"

# Grouping level entry meaning "the dimension instance itself".
INSTANCE = None


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
    both = (F_QUANTITY, F_TOTALAMOUNT)
    return [
        Query("Q21", "SUM", both,
              (("part", INSTANCE), ("customer", INSTANCE),
               ("supplier", INSTANCE), ("date", INSTANCE))),
        Query("Q22", "MIN", (F_QUANTITY,),
              (("customer", "nation"), ("part", "type3"),
               ("supplier", "nation"), ("date", "day"))),
        Query("Q23", "MAX", (F_TOTALAMOUNT,),
              (("date", "month"), ("part", "type2"),
               ("supplier", "nation"), ("customer", "region"))),
        Query("Q24", "AVG", (F_TOTALAMOUNT,),
              (("supplier", "region"), ("part", "type1"),
               ("customer", "region"), ("date", "year"))),
        Query("D1", "SUM", both, (("date", "day"),)),
        Query("D2", "SUM", both, (("part", "type3"), ("date", "day"))),
        Query("D3", "SUM", both,
              (("part", "type3"), ("customer", "nation"), ("date", "day"))),
        Query("D4", "SUM", both,
              (("part", "type3"), ("customer", "nation"),
               ("supplier", "nation"), ("date", "day"))),
    ]


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


def load_workload(path: str) -> list[Query]:
    queries = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if line and not line.startswith("#"):
                queries.append(parse_query_line(line))
    return queries


# --- cubes -------------------------------------------------------------------


class AvgState:
    """Compensated running sum plus count; finalized to sum/count at close."""

    __slots__ = ("total", "_c", "count")

    def __init__(self):
        self.total = 0.0
        self._c = 0.0
        self.count = 0

    def add(self, value: float) -> None:
        y = value - self._c
        t = self.total + y
        self._c = (t - self.total) - y
        self.total = t
        self.count += 1

    @property
    def value(self) -> float:
        return self.total / self.count


class Entry:
    """One cube entry: per-measure aggregate state plus support count."""

    __slots__ = ("support", "states")

    def __init__(self, aggregate: str, width: int):
        self.support = 0
        if aggregate == "SUM":
            self.states = [0.0] * width
        elif aggregate == "AVG":
            self.states = [AvgState() for _ in range(width)]
        else:
            self.states = [None] * width

    def values(self, aggregate: str) -> tuple[float, ...]:
        if aggregate == "AVG":
            return tuple(state.value for state in self.states)
        return tuple(self.states)


def aggregate_step(entry: Entry, values: Sequence[float], aggregate: str) -> Entry:
    """Fold one fact's measure values into the entry."""
    states = entry.states
    if aggregate == "SUM":
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
    elif aggregate == "AVG":
        for i, v in enumerate(values):
            states[i].add(v)
    else:
        raise QueryError(f"unknown aggregate {aggregate!r}")
    return entry


class ResultCube:
    """Group keys mapped to aggregates, built under a matching strategy; the
    one cube form, which run_query, the oracle and the negative control
    build and the checks read in place.

    The hash strategy locates entries by key digest; the scan strategy keeps
    insertion-ordered keys and compares each candidate key whole against the
    probe (the expensive matching the benchmark is designed to expose).
    Under either strategy `entries` maps every group key to its entry, in
    first-seen order; `fact_count` and `grand_totals` (per measure, in
    `query.measures` order) cover every fact observed.
    """

    def __init__(self, query: Query, matching: str = MATCH_HASH):
        if matching not in (MATCH_SCAN, MATCH_HASH):
            raise QueryError(f"unknown matching strategy {matching!r}")
        self.query = query
        self.matching = matching
        self.fact_count = 0
        self.grand_totals = [0.0] * len(query.measures)
        self.entries: dict[tuple, Entry] = {}
        self._scan_keys: list[tuple] = []
        self._scan_entries: list[Entry] = []

    def observe_fact(self, values: Sequence[float]) -> None:
        self.fact_count += 1
        for i, v in enumerate(values):
            self.grand_totals[i] += v

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

    def contribute(self, key: tuple, values: Sequence[float]) -> Entry:
        entry = self.entry_for(key)
        entry.support += 1
        return aggregate_step(entry, values, self.query.aggregate)


# --- query execution ---------------------------------------------------------


@dataclass(frozen=True)
class QueryTiming:
    """Wall-clock run breakdown in milliseconds.

    `load_ms` and `read_ms` are the plan's: loading the grouped dimensions
    and reading the fact columns, once per plan.  `query_ms` is the sum of
    three sequential passes over the facts: resolving every group key
    (where the query-time engine does its summarizability work), matching
    every key to a cube entry, and aggregating.
    """

    load_ms: float
    query_ms: float
    read_ms: float
    resolve_ms: float
    match_ms: float
    agg_ms: float


@dataclass(frozen=True)
class QueryPlan:
    """A query compiled against one warehouse; built by plan_query, and
    shared by every run, check and control over that warehouse.

    `steps` holds one (level, index, ordinals) per grouped
    dimension, in grouping order, where `ordinals` is the dimension's column
    of `facts`; `resolve` is the engine's column resolver.
    """

    query: Query
    facts: xmlio.FactColumns
    steps: tuple[tuple[str | None, list[DimensionInstance], Sequence[int]], ...]
    resolve: Callable[[Sequence[DimensionInstance], Sequence[int], str | None], list]
    load_ms: float
    read_ms: float

    def keys(self) -> Iterator[tuple]:
        """Every fact's group key, in fact order: one component per grouped
        dimension, each dimension resolved as one column when called.  The
        keys are zipped from the columns as they are read, so a consumer
        that does not keep them never holds them all."""
        if not self.steps:
            return repeat((), len(self.facts))
        resolve = self.resolve
        return zip(*[resolve(index, ordinals, level)
                     for level, index, ordinals in self.steps])

    def values(self) -> Iterator[tuple[float, ...]]:
        """Every fact's measures, in fact order, as a tuple in
        `query.measures` order."""
        return zip(*[self.facts.measures[m] for m in self.query.measures])


def plan_query(query: Query, in_dir: str, engine: str = ENGINE_QBS) -> QueryPlan:
    """Compile `query` against the warehouse in `in_dir`, loading the
    grouped dimensions' indexes (timed as `load_ms`) and the fact columns
    (`read_ms`).

    `engine` picks how group membership is resolved: "qbs" resolves complex
    hierarchies on the fly; "pedersen" expects transform_warehouse output and
    reads plain cells.  Every reference to a grouped dimension is
    range-checked here, so a dangling one raises ReferentialError before any
    fact is grouped.
    """
    if engine == ENGINE_QBS:
        resolve = engine_qbs.resolve_column
    elif engine == ENGINE_PEDERSEN:
        resolve = engine_pedersen.resolve_column_pretransformed
    else:
        raise ConfigurationError(f"unknown engine {engine!r}")

    model = xmlio.read_metadata(in_dir)
    validate_query(query, model)

    t0 = time.perf_counter()
    indexes = xmlio.load_dimensions(in_dir, model, query.grouped_dimensions)
    t1 = time.perf_counter()
    facts = xmlio.load_facts(in_dir, model, query.grouped_dimensions)
    t2 = time.perf_counter()
    steps = []
    for dim_id, level in query.grouping:
        facts.check_refs(dim_id, len(indexes[dim_id]))
        steps.append((level, indexes[dim_id], facts.ordinals[dim_id]))
    return QueryPlan(query, facts, tuple(steps), resolve,
                     (t1 - t0) * 1000.0, (t2 - t1) * 1000.0)


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
    t0 = pc()
    keys = list(plan.keys())
    t1 = pc()
    entry_for = cube.entry_for
    entries = [entry_for(key) for key in keys]
    t2 = pc()
    observe_fact = cube.observe_fact
    for entry, values in zip(entries, plan.values()):
        observe_fact(values)
        entry.support += 1
        aggregate_step(entry, values, aggregate)
    t3 = pc()
    resolve_ms, match_ms, agg_ms = ((t1 - t0) * 1000.0, (t2 - t1) * 1000.0,
                                    (t3 - t2) * 1000.0)
    return cube, QueryTiming(plan.load_ms, resolve_ms + match_ms + agg_ms, plan.read_ms,
                             resolve_ms, match_ms, agg_ms)
