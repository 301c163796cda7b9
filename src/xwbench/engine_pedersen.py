"""Static summarizability preprocessing: cover, then fuse, before any query.

The transform rewrites every dimension instance into one complete row so a
plain group-by afterwards needs no summarizability handling.  Covering fills
each hole with the shared placeholder "Other"; fusing collapses a level's
several distinct row values into one fused value (the sorted, '+'-joined
member list) and declares a `<level>_fused` level between the level and its
parent in the rewritten metadata.  Because the fused value also occupies the
original level position of the single output row, engine_qbs.resolve_column
reads it as one plain cell, the label of the query-time engine's fused
component, so both engines group through one resolver into the same groups.

Facts are never touched, and neither is a dimension none of whose instances
needs covering or fusing: both documents are copied byte for byte.  The
preprocessing cost is the overhead the harness reports separately from
query time.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import time
from dataclasses import dataclass, replace

from .engine_qbs import OTHER_LABEL, fused_label
from .errors import ConfigurationError, DocumentError
from . import xmlio
from .model import DimensionInstance, DimensionSchema

FUSED_SUFFIX = "_fused"


def make_covering(inst: DimensionInstance, schema: DimensionSchema) -> DimensionInstance:
    """Fill every absent cell with the shared placeholder value; an instance
    with no absent cell is returned as is."""
    if not inst.has_absent_cell(schema):
        return inst
    rows = tuple({level: row.get(level, OTHER_LABEL) for level in schema.levels}
                 for row in inst.rows)
    return DimensionInstance(inst.instance_id, rows)


def make_strict(inst: DimensionInstance, schema: DimensionSchema) -> DimensionInstance:
    """Collapse a covering instance to one row, fusing multi-valued levels.

    Each level's cell is its single value, or the fused label of its several
    distinct values across rows.  The `<level>_fused` cells are
    transform_warehouse's to write.  Must run on covering rows.
    """
    if inst.has_absent_cell(schema):
        raise ValueError(
            f"instance {inst.instance_id!r} has absent cells; run make_covering first")
    if len(inst.rows) == 1:
        return inst
    cells: dict[str, str] = {}
    for level in schema.levels:
        distinct = {row[level] for row in inst.rows}
        cells[level] = fused_label(distinct) if len(distinct) > 1 else next(iter(distinct))
    return DimensionInstance(inst.instance_id, (cells,))


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


def _copy(src: str, dst: str, written: list[str]) -> None:
    """Copy the document at `src` to `dst` byte for byte, listing `dst` in
    `written` first so that a failed transform removes it."""
    written.append(dst)
    with xmlio.open_document(src) as fh_in, open(dst, "wb") as fh_out:
        shutil.copyfileobj(fh_in, fh_out)


def transform_warehouse(dir_in: str, dir_out: str) -> TransformReport:
    """Rewrite a warehouse so every hierarchy is covering and strict.

    The output directory gets transformed dimension documents, extended
    metadata listing the inserted fused levels, and a byte-identical copy of
    the facts document.  Instances are read with every level kept, so equal
    rows are one dict the reader shares.  An instance of one complete row is
    already covering and strict, so it is written as read; only the others go
    through make_covering and make_strict.  A dimension whose every instance is
    such a row gains no fused level, so once its document is read whole it is
    copied byte for byte (_copy, as the facts are), not written again.  An
    input value spelled like a label the output writes ("Other", or one holding
    "+") raises DocumentError, since the output read back could not tell it
    from a placeholder or a fused value; so does a transform's output that
    holds a label.  Where a dimension gains fused levels, every instance is
    written with a new row holding its `<level>_fused` cells.  Input and output
    are compared as real paths; the output is cleared first
    (xmlio.clear_layout) and its metadata written last, and a failed call
    removes what it wrote, so no reader accepts it.
    """
    if os.path.realpath(dir_in) == os.path.realpath(dir_out):
        raise ConfigurationError("transform requires distinct input and output directories")
    start = time.perf_counter()
    model = xmlio.read_metadata(dir_in)
    xmlio.clear_layout(dir_out)

    covered = 0
    fused_count = 0
    fused_by_dim: dict[str, tuple[str, ...]] = {}
    out_schemas = []
    written: list[str] = []
    try:
        for schema in model.dimensions:
            out_instances = []
            dim_fused: set[str] = set()
            width = len(schema.levels)
            changed = False
            for inst in xmlio.iter_instances(dir_in, schema, schema.levels):
                rows = inst.rows
                for row in rows:
                    for value in row.values():
                        if value == OTHER_LABEL or "+" in value:
                            raise DocumentError(
                                f"{os.path.join(dir_in, schema.path)}: instance "
                                f"{inst.instance_id!r} holds {value!r}, spelled like a label")
                # The reader rejects undeclared levels, so a full-width row
                # holds every declared one.
                if len(rows) == 1 and len(rows[0]) == width:
                    out_instances.append(inst)
                    continue
                changed = True
                covering = make_covering(inst, schema)
                if covering is not inst:
                    covered += 1
                strict = make_strict(covering, schema)
                # The input holds no '+', so a value holding one is a fused label.
                inst_fused = {level for level, value in strict.rows[0].items() if "+" in value}
                if inst_fused:
                    fused_count += 1
                    dim_fused |= inst_fused
                out_instances.append(strict)
            ext = extended_schema(schema, dim_fused)
            out_schemas.append(ext)
            if not changed:
                # Every instance is written as read, and the readers accept
                # only the written form: the document is its own output.
                _copy(os.path.join(dir_in, schema.path), os.path.join(dir_out, ext.path),
                      written)
                continue
            if dim_fused:
                # Each fused level's cell copies the level's: its fused label or,
                # unfused, its own value.  Each output row is a new dict, made as
                # it is written: the reader shares the row of unchanged instances.
                out_instances = (DimensionInstance(inst.instance_id, (
                    {**cells, **{level + FUSED_SUFFIX: cells[level] for level in dim_fused}},))
                    for inst in out_instances for cells in inst.rows)
                fused_by_dim[schema.id] = tuple(
                    lvl for lvl in ext.levels if lvl.endswith(FUSED_SUFFIX))
            written.append(os.path.join(dir_out, ext.path))
            xmlio.write_dimension(ext, out_instances, dir_out)

        _copy(os.path.join(dir_in, model.fact_path), os.path.join(dir_out, model.fact_path),
              written)
        written.append(os.path.join(dir_out, xmlio.METADATA_FILE))
        xmlio.write_metadata(replace(model, dimensions=tuple(out_schemas)), dir_out)
    except BaseException:
        for path in written:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        raise
    overhead_ms = (time.perf_counter() - start) * 1000.0
    return TransformReport(overhead_ms, covered, fused_count, fused_by_dim)

