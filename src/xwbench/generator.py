"""Deterministic, seeded warehouse generation in four hierarchy regimes.

Scaling knobs: fact_number sizes the warehouse (one fact yields one instance
in each of the four dimensions); incomplete_percentage and
nonstrict_percentage set how often instances are complexified, non-strict
ones among NONSTRICT_DIMENSIONS only; nonstrict_number sets the row-array
size of a non-strict instance.  The regimes follow from the percentages:
simple (0/0), incomplete only, non-strict only, and complex (both).  The
warehouse always has the sales model's four dimensions (default_model),
with values drawn from its vocabularies (PART_TYPE*, NATIONS,
DATE_FIRST..DATE_LAST), and every row is a plain level -> value dict.

Selection is stratified: the instance sequence is cut into consecutive
blocks of round(100/percentage) and exactly one uniform pick is made per
full block, so a 50% setting marks one instance out of every two.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import timedelta

from .errors import ConfigurationError, EligibilityError
from . import xmlio
from .model import (
    DATE_FIRST,
    DATE_LAST,
    NATION_REGION,
    NATIONS,
    NONSTRICT_DIMENSIONS,
    PART_TYPE1,
    PART_TYPE2,
    PART_TYPE3,
    DimensionInstance,
    DimensionSchema,
    FactRecord,
    GenerationInfo,
    HierarchyKind,
    Warehouse,
    date_levels,
    default_model,
)
from .rng import SplitMix64


@dataclass(frozen=True)
class GeneratorConfig:
    """The four scaling parameters plus seed and output location."""

    fact_number: int
    incomplete_percentage: int = 0
    nonstrict_percentage: int = 0
    nonstrict_number: int = 0
    seed: int = 0
    output_dir: str | None = None

    @property
    def regime(self) -> HierarchyKind:
        return HierarchyKind.of(self.nonstrict_percentage > 0, self.incomplete_percentage > 0)

    def validate(self) -> None:
        for name in ("fact_number", "incomplete_percentage", "nonstrict_percentage",
                     "nonstrict_number", "seed"):
            if type(value := getattr(self, name)) is not int:
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        if self.fact_number < 0:
            raise ConfigurationError(f"fact_number must be >= 0, got {self.fact_number}")
        for name in ("incomplete_percentage", "nonstrict_percentage"):
            value = getattr(self, name)
            if not 0 <= value <= 100:
                raise ConfigurationError(f"{name} must be in [0, 100], got {value}")
        if not 0 <= self.seed < (1 << 64):
            raise ConfigurationError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if self.nonstrict_percentage > 0 and self.nonstrict_number < 2:
            raise ConfigurationError(
                "nonstrict_percentage > 0 requires nonstrict_number >= 2 "
                "(a non-strict instance has at least two rows), got "
                f"nonstrict_number={self.nonstrict_number}")


def select_targets(total: int, percentage: int, rng: SplitMix64) -> set[int]:
    """Stratified index selection: one uniform pick per full block.

    Blocks are consecutive runs of round(100/percentage) indices; a trailing
    partial block yields nothing.  percentage=0 selects nothing, 100 selects
    everything.
    """
    if not 0 <= percentage <= 100:
        raise ValueError(f"percentage must be in [0, 100], got {percentage}")
    if percentage == 0 or total == 0:
        return set()
    block = max(1, round(100 / percentage))
    return {b * block + rng.below(block) for b in range(total // block)}


def stratified_count(total: int, percentage: int) -> int:
    """How many indices select_targets would pick, without consuming draws."""
    if percentage == 0 or total == 0:
        return 0
    return total // max(1, round(100 / percentage))


_DAY_COUNT = (DATE_LAST - DATE_FIRST).days + 1


def _draw_row(dim_id: str, rng: SplitMix64, days: dict[int, dict[str, str]]) -> dict[str, str]:
    """One complete, uniformly drawn level assignment for the dimension.

    `days` memoizes each drawn calendar day's level values by day index, so
    the rows of one generation share one string per distinct value."""
    if dim_id == "part":
        return {
            "type3": rng.choice(PART_TYPE3),
            "type2": rng.choice(PART_TYPE2),
            "type1": rng.choice(PART_TYPE1),
        }
    if dim_id in ("customer", "supplier"):
        nation = rng.choice(NATIONS)
        return {"nation": nation, "region": NATION_REGION[nation]}
    if dim_id == "date":
        index = rng.below(_DAY_COUNT)
        levels = days.get(index)
        if levels is None:
            levels = days[index] = date_levels(DATE_FIRST + timedelta(days=index))
        return dict(levels)
    raise ValueError(f"unknown dimension {dim_id!r}")


def gen_incomplete(inst: DimensionInstance, rng: SplitMix64) -> DimensionInstance:
    """Remove at least one level value (Alg. 1 semantics).

    Each pass offers every present cell an independent 1-in-2 removal (Alg. 1
    only says the level is "randomly determined"; 1/2 keeps the retry loop
    short and still lets several levels drop in one pass); passes repeat
    until something was removed, so a single-level instance always loses
    that level.  Rows are never added or dropped.
    """
    rows = [dict(row) for row in inst.rows]
    if not any(rows):
        raise ValueError(f"instance {inst.instance_id!r} has no present cell to remove")
    removed = False
    while not removed:
        for row in rows:
            for level in list(row):
                if rng.flip():
                    del row[level]
                    removed = True
    return DimensionInstance(inst.instance_id, tuple(rows))


def gen_nonstrict(nonstrict_number: int, inst: DimensionInstance, schema: DimensionSchema,
                  rng: SplitMix64) -> DimensionInstance:
    """Replace the instance's row with a fresh array of nonstrict_number rows.

    Every row is a full uniform draw (regions always consistent with their
    nation), so the result is non-strict but complete.
    """
    if nonstrict_number < 2:
        raise ValueError(f"nonstrict_number must be >= 2, got {nonstrict_number}")
    if schema.id not in NONSTRICT_DIMENSIONS:
        raise EligibilityError(
            f"dimension {schema.id!r} cannot be non-strict")
    rows = tuple(_draw_row(schema.id, rng, {}) for _ in range(nonstrict_number))
    return DimensionInstance(inst.instance_id, rows)


def gen_complex(inst: DimensionInstance, rng: SplitMix64) -> DimensionInstance:
    """Run incompleteness over randomly chosen rows of a non-strict array (Alg. 3).

    Each pass offers every non-empty row an independent 1-in-2 chance of
    being handed to gen_incomplete; passes repeat until at least one row was.
    Unselected rows are untouched and the row count is preserved.
    """
    if len(inst.rows) < 2:
        raise ValueError(f"instance {inst.instance_id!r} is not non-strict")
    rows = list(inst.rows)
    candidates = [i for i, row in enumerate(rows) if row]
    if not candidates:
        raise ValueError(f"instance {inst.instance_id!r} has no present cell to remove")
    selected = False
    while not selected:
        for i in candidates:
            if rng.flip():
                one_row = DimensionInstance(inst.instance_id, (rows[i],))
                rows[i] = gen_incomplete(one_row, rng).rows[0]
                selected = True
    return DimensionInstance(inst.instance_id, tuple(rows))


def generate_warehouse(cfg: GeneratorConfig) -> Warehouse:
    """Generate (and persist, when output_dir is set) one seeded warehouse.

    The draw order is fixed (per fact: part row, customer row, supplier
    row, date, quantity, price; then non-strict selection and row arrays;
    then incompleteness), so equal (config, seed) give byte-identical
    documents.
    """
    cfg.validate()
    model = default_model()
    rng = SplitMix64(cfg.seed)
    n = cfg.fact_number

    instances: dict[str, list[DimensionInstance]] = {s.id: [] for s in model.dimensions}
    facts: list[FactRecord] = []
    days: dict[int, dict[str, str]] = {}
    for i in range(1, n + 1):
        refs = {}
        for schema in model.dimensions:
            inst_id = f"{schema.id}#{i}"
            row = _draw_row(schema.id, rng, days)
            instances[schema.id].append(DimensionInstance(inst_id, (row,)))
            refs[schema.id] = inst_id
        quantity = 1 + rng.below(100)
        price_cents = 100 + rng.below(9901)  # uniform price in [1.00, 100.00]
        facts.append(FactRecord(f"sale#{i}", quantity, quantity * price_cents, refs))

    # Non-strict pass: targets are drawn among eligible instances only.
    nonstrict_ids: set[str] = set()
    if cfg.nonstrict_percentage > 0 and n > 0:
        eligible_seq = [(dim, i) for i in range(n) for dim in NONSTRICT_DIMENSIONS]
        for pos in sorted(select_targets(len(eligible_seq), cfg.nonstrict_percentage, rng)):
            dim, i = eligible_seq[pos]
            instances[dim][i] = gen_nonstrict(cfg.nonstrict_number, instances[dim][i],
                                              model.dimension(dim), rng)
            nonstrict_ids.add(instances[dim][i].instance_id)

    # Incompleteness pass.  In the complex regime targets come from the
    # non-strict selection first; only the excess demand spills over to
    # still-simple instances.
    incomplete_ids: set[str] = set()
    if cfg.incomplete_percentage > 0 and n > 0:
        all_seq = [(s.id, i) for i in range(n) for s in model.dimensions]
        if cfg.nonstrict_percentage > 0:
            demand = stratified_count(len(all_seq), cfg.incomplete_percentage)
            ns_positions = [p for p, (dim, i) in enumerate(all_seq)
                            if instances[dim][i].instance_id in nonstrict_ids]
            if demand <= len(ns_positions):
                targets = rng.sample(ns_positions, demand)
            else:
                ns_set = set(ns_positions)
                others = [p for p in range(len(all_seq)) if p not in ns_set]
                targets = ns_positions + rng.sample(others, demand - len(ns_positions))
        else:
            targets = list(select_targets(len(all_seq), cfg.incomplete_percentage, rng))
        for pos in sorted(targets):
            dim, i = all_seq[pos]
            inst = instances[dim][i]
            if len(inst.rows) > 1:
                instances[dim][i] = gen_complex(inst, rng)
            else:
                instances[dim][i] = gen_incomplete(inst, rng)
            incomplete_ids.add(inst.instance_id)

    warehouse = Warehouse(
        model, facts, instances,
        generation=GenerationInfo(cfg, frozenset(nonstrict_ids), frozenset(incomplete_ids)),
    )
    if cfg.output_dir is not None:
        xmlio.write_warehouse(warehouse, cfg.output_dir)
    return warehouse
