"""Multidimensional schema, instance value types, and the shared value pools.

The warehouse describes retail sales: a `sale` fact carries two measures
(f_quantity, f_totalamount) and references one instance in each of four
dimensions (part, customer, supplier, date).  A dimension instance holds a
row array: several rows encode non-strictness (an instance rolling up to
several parents), a missing level value inside a row encodes incompleteness.
Everything downstream (generator, engines, workload) consumes these types.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, timedelta
from enum import Enum
from typing import Any, Iterable, Mapping

from .errors import StructuralError

F_QUANTITY = "f_quantity"
F_TOTALAMOUNT = "f_totalamount"

PART_TYPE3 = ("ECONOMY", "LARGE", "STANDARD", "PROMO", "MEDIUM", "SMALL")
PART_TYPE2 = ("ANODIZED", "BURNISHED", "BRUSHED", "POLISHED", "PLATED")
PART_TYPE1 = ("COPPER", "NICKEL", "STEEL", "TIN", "BRASS")

# TPC-H reference nations in nationkey order, with their regions.
NATION_REGION = {
    "ALGERIA": "AFRICA",
    "ARGENTINA": "AMERICA",
    "BRAZIL": "AMERICA",
    "CANADA": "AMERICA",
    "EGYPT": "MIDDLE EAST",
    "ETHIOPIA": "AFRICA",
    "FRANCE": "EUROPE",
    "GERMANY": "EUROPE",
    "INDIA": "ASIA",
    "INDONESIA": "ASIA",
    "IRAN": "MIDDLE EAST",
    "IRAQ": "MIDDLE EAST",
    "JAPAN": "ASIA",
    "JORDAN": "MIDDLE EAST",
    "KENYA": "AFRICA",
    "MOROCCO": "AFRICA",
    "MOZAMBIQUE": "AFRICA",
    "PERU": "AMERICA",
    "CHINA": "ASIA",
    "ROMANIA": "EUROPE",
    "SAUDI ARABIA": "MIDDLE EAST",
    "VIETNAM": "ASIA",
    "RUSSIA": "EUROPE",
    "UNITED KINGDOM": "EUROPE",
    "UNITED STATES": "AMERICA",
}
NATIONS = tuple(NATION_REGION)
REGIONS = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")

DATE_FIRST = date(1992, 1, 1)
DATE_LAST = date(1998, 12, 31)


class HierarchyKind(Enum):
    """The four complexity regimes, for whole warehouses and single instances."""

    SIMPLE = "simple"
    INCOMPLETE = "incomplete"
    NONSTRICT = "nonstrict"
    COMPLEX = "complex"


@dataclass(frozen=True)
class DimensionSchema:
    """One dimension's identity, document path, and level chain.

    `levels` runs finest to coarsest.  `nonstrict_eligible` marks the
    dimensions whose instances may hold several rows; the eligible levels
    record where multi-valuing may appear (part: every level; customer and
    supplier: nation only, since a nation belongs to exactly one region;
    date: nowhere).
    """

    id: str
    path: str
    levels: tuple[str, ...]
    nonstrict_eligible: bool
    nonstrict_eligible_levels: tuple[str, ...]


@dataclass(frozen=True)
class DwModel:
    """The warehouse metadata: fact identity, dimension schemas, measures."""

    fact_id: str
    fact_path: str
    dimensions: tuple[DimensionSchema, ...]
    measures: tuple[str, ...]

    def dimension(self, dim_id: str) -> DimensionSchema:
        for schema in self.dimensions:
            if schema.id == dim_id:
                return schema
        raise KeyError(dim_id)

    @property
    def dimension_ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.dimensions)


# The three per-record types below are built once per parsed, generated or
# transformed row, instance and fact, so they are slotted, not frozen: a
# frozen __init__ costs about 420 ns against 140 ns for a slotted one (three
# fields, CPython 3.11).  Frozen was only shallow anyway (`cells` and
# `dim_refs` are plain dicts, which also made the records unhashable).  Treat
# them as immutable: build a new record instead of assigning to a field.
@dataclass(slots=True)
class LevelRow:
    """One row of an instance's row array: present level values only.

    A level absent from `cells` is an incompleteness hole.  An empty mapping
    is the degenerate fully-absent row (e.g. an anonymous customer once every
    level was removed); absence of the whole dimension is recognised at
    instance granularity, not by dropping the fact's reference.
    """

    cells: Mapping[str, str]

    def value(self, level: str) -> str | None:
        return self.cells.get(level)


@dataclass(slots=True)
class DimensionInstance:
    instance_id: str
    dimension_id: str
    rows: tuple[LevelRow, ...]

    def has_absent_cell(self, schema: DimensionSchema) -> bool:
        return any(len(row.cells) < len(schema.levels) for row in self.rows)


@dataclass(slots=True)
class FactRecord:
    """A sale: measures plus exactly one instance reference per dimension."""

    fact_id: str
    f_quantity: int
    f_totalamount: float
    dim_refs: Mapping[str, str]


@dataclass(frozen=True)
class ValuePools:
    """Vocabularies the generator draws from.

    The part vocabularies are fixed categorical sets; the nation pool maps
    totally and single-valuedly onto regions (the nation/region hierarchy is
    strict); dates span a fixed calendar range with day/month/year derived
    from the calendar date so the date hierarchy is strict as well.
    """

    type3: tuple[str, ...]
    type2: tuple[str, ...]
    type1: tuple[str, ...]
    nations: tuple[str, ...]
    regions: tuple[str, ...]
    nation_region: Mapping[str, str]
    date_first: date
    date_last: date

    def region_of(self, nation: str) -> str:
        return self.nation_region[nation]

    @property
    def day_count(self) -> int:
        return (self.date_last - self.date_first).days + 1

    def day(self, index: int) -> date:
        return self.date_first + timedelta(days=index)

    def part_level_values(self, level: str) -> tuple[str, ...]:
        return {"type3": self.type3, "type2": self.type2, "type1": self.type1}[level]


DEFAULT_POOLS = ValuePools(
    type3=PART_TYPE3,
    type2=PART_TYPE2,
    type1=PART_TYPE1,
    nations=NATIONS,
    regions=REGIONS,
    nation_region=NATION_REGION,
    date_first=DATE_FIRST,
    date_last=DATE_LAST,
)


def date_levels(d: date) -> dict[str, str]:
    """Level values for a calendar date; year-qualified so roll-ups stay strict."""
    return {"day": d.isoformat(), "month": f"{d.year:04d}-{d.month:02d}", "year": f"{d.year:04d}"}


def default_model() -> DwModel:
    """The fixed 4-dimension, 2-measure sales model."""
    dimensions = (
        DimensionSchema("part", "d_part.xml", ("type3", "type2", "type1"), True,
                        ("type3", "type2", "type1")),
        DimensionSchema("customer", "d_customer.xml", ("nation", "region"), False, ("nation",)),
        DimensionSchema("supplier", "d_supplier.xml", ("nation", "region"), True, ("nation",)),
        DimensionSchema("date", "d_date.xml", ("day", "month", "year"), False, ()),
    )
    return DwModel("sale", "f_sale.xml", dimensions, (F_QUANTITY, F_TOTALAMOUNT))


def classify_instance(inst: DimensionInstance, schema: DimensionSchema) -> HierarchyKind:
    """Assign the instance exactly one of the four hierarchy kinds.

    Multi-row with no hole -> NONSTRICT; single-row with a hole ->
    INCOMPLETE; multi-row with a hole -> COMPLEX; otherwise SIMPLE.
    """
    declared = set(schema.levels)
    absent = False
    for row in inst.rows:
        for level in row.cells:
            if level not in declared:
                raise StructuralError(
                    f"instance {inst.instance_id!r} carries undeclared level {level!r} "
                    f"for dimension {schema.id!r}"
                )
        if len(row.cells) < len(schema.levels):
            absent = True
    multi = len(inst.rows) > 1
    if multi and absent:
        return HierarchyKind.COMPLEX
    if multi:
        return HierarchyKind.NONSTRICT
    if absent:
        return HierarchyKind.INCOMPLETE
    return HierarchyKind.SIMPLE


@dataclass(frozen=True)
class GenerationInfo:
    """Selection log: which instances the generator complexified."""

    config: Any
    nonstrict_ids: frozenset[str]
    incomplete_ids: frozenset[str]


@dataclass
class Warehouse:
    """In-memory warehouse: the model plus every fact and dimension instance.

    `instances` keeps generation order per dimension (document order on
    disk).  `generation` is present only on freshly generated warehouses.
    """

    model: DwModel
    facts: list[FactRecord]
    instances: dict[str, list[DimensionInstance]]
    generation: GenerationInfo | None = field(default=None, compare=False)

    def instance_index(self) -> dict[str, dict[str, DimensionInstance]]:
        return {dim: {inst.instance_id: inst for inst in insts}
                for dim, insts in self.instances.items()}

    def iter_all_instances(self) -> Iterable[tuple[DimensionSchema, DimensionInstance]]:
        for schema in self.model.dimensions:
            for inst in self.instances[schema.id]:
                yield schema, inst
