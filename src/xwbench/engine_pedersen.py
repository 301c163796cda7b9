"""Static summarizability preprocessing: cover, then fuse, before any query.

The transform rewrites every dimension instance into one complete row so a
plain group-by afterwards needs no summarizability handling.  Covering fills
each hole with the shared placeholder "Other"; fusing collapses a level's
several distinct row values into one fused value (the sorted, '+'-joined
member list) and declares a `<level>_fused` level between the level and its
parent in the rewritten metadata.  Because the fused value also occupies the
original level position of the single output row, the groups a query forms
over transformed data coincide exactly with the query-time engine's fused
components under the same naming, which both take from engine_qbs.

Facts are never touched; the preprocessing cost is the overhead the harness
reports separately from query time.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, replace
from typing import Sequence

from .engine_qbs import OTHER_LABEL, fused_label
from .errors import ConfigurationError
from . import xmlio
from .model import DimensionInstance, DimensionSchema, LevelRow

FUSED_SUFFIX = "_fused"


def make_covering(inst: DimensionInstance, schema: DimensionSchema) -> DimensionInstance:
    """Fill every absent cell with the shared placeholder value."""
    if not inst.has_absent_cell(schema):
        return inst
    rows = tuple(
        LevelRow({level: row.cells.get(level, OTHER_LABEL) for level in schema.levels})
        for row in inst.rows
    )
    return DimensionInstance(inst.instance_id, inst.dimension_id, rows)


def make_strict(inst: DimensionInstance, schema: DimensionSchema) -> DimensionInstance:
    """Collapse a covering instance to one row, fusing multi-valued levels.

    Levels are processed finest to coarsest; a level with several distinct
    values across rows keeps the fused label in its own position and in the
    inserted `<level>_fused` cell.  Must run on covering rows.
    """
    if inst.has_absent_cell(schema):
        raise ValueError(
            f"instance {inst.instance_id!r} has absent cells; run make_covering first")
    if len(inst.rows) == 1:
        return inst
    cells: dict[str, str] = {}
    for level in schema.levels:
        distinct = {row.cells[level] for row in inst.rows}
        value = fused_label(distinct) if len(distinct) > 1 else next(iter(distinct))
        cells[level] = value
        if len(distinct) > 1:
            cells[level + FUSED_SUFFIX] = value
    return DimensionInstance(inst.instance_id, inst.dimension_id, (LevelRow(cells),))


def fused_levels_of(inst: DimensionInstance, schema: DimensionSchema) -> set[str]:
    """Original levels whose values got fused in a make_strict result."""
    extra = set(inst.rows[0].cells) - set(schema.levels) if len(inst.rows) == 1 else set()
    return {name[: -len(FUSED_SUFFIX)] for name in extra if name.endswith(FUSED_SUFFIX)}


def extended_schema(schema: DimensionSchema, fused: set[str]) -> DimensionSchema:
    """Insert each fused level right after its source, i.e. before the parent."""
    levels: list[str] = []
    for level in schema.levels:
        levels.append(level)
        if level in fused:
            levels.append(level + FUSED_SUFFIX)
    return replace(schema, levels=tuple(levels))


@dataclass(frozen=True)
class TransformReport:
    overhead_ms: float
    instances_covered: int
    instances_fused: int
    fused_levels: dict[str, tuple[str, ...]]


def transform_warehouse(dir_in: str, dir_out: str) -> TransformReport:
    """Rewrite a warehouse so every hierarchy is covering and strict.

    The output directory gets transformed dimension documents, extended
    metadata listing the inserted fused levels, and a byte-identical copy of
    the facts document.  Transforming already-transformed data is a no-op.
    """
    if os.path.abspath(dir_in) == os.path.abspath(dir_out):
        raise ConfigurationError("transform requires distinct input and output directories")
    start = time.perf_counter()
    model = xmlio.read_metadata(dir_in)
    os.makedirs(dir_out, exist_ok=True)

    covered = 0
    fused_count = 0
    fused_by_dim: dict[str, tuple[str, ...]] = {}
    out_schemas = []
    for schema in model.dimensions:
        out_instances = []
        dim_fused: set[str] = set()
        for inst in xmlio.iter_instances(dir_in, schema):
            if inst.has_absent_cell(schema):
                covered += 1
            strict = make_strict(make_covering(inst, schema), schema)
            inst_fused = fused_levels_of(strict, schema)
            if inst_fused:
                fused_count += 1
                dim_fused |= inst_fused
            out_instances.append(strict)
        ext = extended_schema(schema, dim_fused)
        if dim_fused:
            # Unfused instances carry the singleton fusion (their own value)
            # so every row is complete over the extended chain.
            filled = []
            for inst in out_instances:
                cells = dict(inst.rows[0].cells)
                for level in dim_fused:
                    cells.setdefault(level + FUSED_SUFFIX, cells[level])
                filled.append(DimensionInstance(inst.instance_id, inst.dimension_id,
                                                (LevelRow(cells),)))
            out_instances = filled
            fused_by_dim[schema.id] = tuple(
                lvl for lvl in ext.levels if lvl.endswith(FUSED_SUFFIX))
        xmlio.write_dimension(ext, out_instances, dir_out)
        out_schemas.append(ext)

    xmlio.write_metadata(replace(model, dimensions=tuple(out_schemas)), dir_out)
    shutil.copyfile(os.path.join(dir_in, model.fact_path),
                    os.path.join(dir_out, model.fact_path))
    overhead_ms = (time.perf_counter() - start) * 1000.0
    return TransformReport(overhead_ms, covered, fused_count, fused_by_dim)


def resolve_column_pretransformed(index: Sequence[DimensionInstance],
                                  ordinals: Sequence[int], level: str | None) -> list[str]:
    """Plain cell reads over transformed data, of instance `index[o - 1]`
    for every ordinal o; anything but one complete row means the warehouse
    was not transformed and the engine/warehouse pairing is wrong."""
    if level is None:
        return [index[o - 1].instance_id for o in ordinals]
    column = []
    append = column.append
    for o in ordinals:
        inst = index[o - 1]
        rows = inst.rows
        if len(rows) != 1:
            raise ConfigurationError(
                f"instance {inst.instance_id!r} has {len(rows)} rows; "
                "this warehouse is not the output of transform_warehouse")
        value = rows[0].cells.get(level)
        if value is None:
            raise ConfigurationError(
                f"instance {inst.instance_id!r} is missing {level!r}; "
                "this warehouse is not the output of transform_warehouse")
        append(value)
    return column
