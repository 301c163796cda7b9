"""Multidimensional schema, instance value types, and the generator's vocabularies.

The warehouse describes retail sales: a `sale` fact carries two measures
(f_quantity, f_totalamount) and references one instance in each of four
dimensions (part, customer, supplier, date).  A dimension instance is its
id and its row array, each row a plain dict from level to value: several
rows encode non-strictness (an instance rolling up to several parents), a
level missing from a row encodes incompleteness.  HierarchyKind.of is the
one rule that names the regime those two facts give.  A DimensionSchema is
what dw-model.xml declares; which dimensions may be non-strict is a property
of what they mean, NONSTRICT_DIMENSIONS, read by the generator alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date
from enum import Enum
from typing import Mapping

F_QUANTITY = "f_quantity"
F_TOTALAMOUNT = "f_totalamount"

# The vocabularies the generator draws level values from.  Nations map
# totally and single-valuedly onto regions, and date levels derive from the
# calendar day (date_levels), so both hierarchies are strict.
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

DATE_FIRST = date(1992, 1, 1)
DATE_LAST = date(1998, 12, 31)

# The dimensions whose instances the generator may give several rows.
NONSTRICT_DIMENSIONS = ("part", "supplier")


class HierarchyKind(Enum):
    """The four complexity regimes, for whole warehouses and single instances."""

    SIMPLE = "simple"
    INCOMPLETE = "incomplete"
    NONSTRICT = "nonstrict"
    COMPLEX = "complex"

    @classmethod
    def of(cls, multi: bool, absent: bool) -> HierarchyKind:
        """The regime of data that has multi-valued (several-row) instances
        when `multi`, and missing level values when `absent`."""
        if multi:
            return cls.COMPLEX if absent else cls.NONSTRICT
        return cls.INCOMPLETE if absent else cls.SIMPLE


@dataclass(frozen=True)
class DimensionSchema:
    """One dimension as dw-model.xml declares it: its id, its document path
    and its level chain, finest to coarsest."""

    id: str
    path: str
    levels: tuple[str, ...]


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


# The two record types below are built once per parsed, generated or
# transformed instance and fact, so they are slotted, not frozen: a frozen
# __init__ costs about 420 ns against 140 ns for a slotted one (three fields,
# CPython 3.11).  Frozen would only be shallow anyway (`rows` holds plain
# dicts and `dim_refs` is one).  Treat them as immutable: build a new record
# instead of assigning to a field.
@dataclass(slots=True)
class DimensionInstance:
    """One instance and its row array.  A row maps level to value, present
    values only: a level absent from a row is an incompleteness hole, and
    `{}` is the degenerate fully-absent row (e.g. an anonymous customer once
    every level was removed); absence of the whole dimension is recognised
    at instance granularity, not by dropping the fact's reference."""

    instance_id: str
    rows: tuple[dict[str, str], ...]

    def has_absent_cell(self, schema: DimensionSchema) -> bool:
        """Whether some row is shorter than the level chain, i.e. has a hole."""
        width = len(schema.levels)
        for row in self.rows:
            if len(row) < width:
                return True
        return False


@dataclass(slots=True)
class FactRecord:
    """A sale: measures plus exactly one instance reference per dimension.
    The amount is an integer number of cents (written 1234.56 as 123456)."""

    fact_id: str
    f_quantity: int
    f_totalamount: int
    dim_refs: Mapping[str, str]


def date_levels(d: date) -> dict[str, str]:
    """Level values for a calendar date; year-qualified so roll-ups stay strict."""
    return {"day": d.isoformat(), "month": f"{d.year:04d}-{d.month:02d}", "year": f"{d.year:04d}"}


def default_model() -> DwModel:
    """The fixed 4-dimension, 2-measure sales model."""
    dimensions = (
        DimensionSchema("part", "d_part.xml", ("type3", "type2", "type1")),
        DimensionSchema("customer", "d_customer.xml", ("nation", "region")),
        DimensionSchema("supplier", "d_supplier.xml", ("nation", "region")),
        DimensionSchema("date", "d_date.xml", ("day", "month", "year")),
    )
    return DwModel("sale", "f_sale.xml", dimensions, (F_QUANTITY, F_TOTALAMOUNT))


@dataclass(frozen=True)
class GenerationInfo:
    """Selection log: which instances the generator complexified."""

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
