"""Reading and writing the six-document warehouse layout.

A warehouse directory holds dw-model.xml (metadata), f_sale.xml (facts) and
one document per dimension (d_part.xml, d_customer.xml, d_supplier.xml,
d_date.xml).  The element grammar is documented in docs/document-grammar.md.
Writers emit a fixed byte form (two-space indent, single-quoted attributes,
fixed attribute order) so equal inputs give byte-identical documents.
Readers stream with xml.etree.iterparse and never materialize a whole
document tree; instance ids are dense per dimension (part#1..part#N), which
lets the fact/instance join be checked in constant memory.
"""

from __future__ import annotations

import os
import xml.etree.ElementTree as ET
from typing import Callable, Collection, Iterable, Iterator

from .errors import DocumentError, ReferentialError
from .model import (
    ELIGIBILITY,
    DimensionInstance,
    DimensionSchema,
    DwModel,
    FactRecord,
    LevelRow,
    Warehouse,
)

METADATA_FILE = "dw-model.xml"

# Dimension id -> instance id -> instance: the query-time join.
Indexes = dict[str, dict[str, DimensionInstance]]
XML_DECL = "<?xml version='1.0' encoding='UTF-8'?>\n"

_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", "'": "&apos;"}


def _esc(value: str) -> str:
    if "&" in value or "<" in value or ">" in value or "'" in value:
        for raw, rep in _ESCAPES.items():
            value = value.replace(raw, rep)
    return value


def layout_files(model: DwModel) -> list[str]:
    return [METADATA_FILE, model.fact_path] + [s.path for s in model.dimensions]


def _level_chain(levels: tuple[str, ...]) -> str:
    """Nest levels finest-outermost: (a, b, c) -> <a><b><c/></b></a>."""
    out = []
    for name in levels[:-1]:
        out.append(f"<{name}>")
    out.append(f"<{levels[-1]}/>")
    for name in reversed(levels[:-1]):
        out.append(f"</{name}>")
    return "".join(out)


def write_metadata(model: DwModel, out_dir: str) -> str:
    """Emit dw-model.xml: fact element wrapping dimension chains and measures."""
    lines = [XML_DECL, "<dw-model>\n"]
    lines.append(f"  <fact id='{model.fact_id}' path='{model.fact_path}'>\n")
    for schema in model.dimensions:
        lines.append(
            f"    <dimension idref='{schema.id}' path='{schema.path}'>"
            f"{_level_chain(schema.levels)}</dimension>\n"
        )
    for measure in model.measures:
        lines.append(f"    <measure id='{measure}'/>\n")
    lines.append("  </fact>\n</dw-model>\n")
    path = os.path.join(out_dir, METADATA_FILE)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)
    return path


def format_amount(value: float) -> str:
    """Currency with exactly two fractional digits, no float formatting jitter."""
    cents = round(value * 100)
    return f"{cents // 100}.{cents % 100:02d}"


def write_facts(model: DwModel, facts: Iterable[FactRecord], out_dir: str) -> str:
    parts = [XML_DECL]
    body = []
    for fact in facts:
        body.append(f"  <sale id='{fact.fact_id}'>\n")
        body.append(f"    <f_quantity>{fact.f_quantity}</f_quantity>\n")
        body.append(f"    <f_totalamount>{format_amount(fact.f_totalamount)}</f_totalamount>\n")
        for schema in model.dimensions:
            body.append(
                f"    <dimref dim='{schema.id}' idref='{fact.dim_refs[schema.id]}'/>\n"
            )
        body.append("  </sale>\n")
    if body:
        parts.append("<sales>\n")
        parts.extend(body)
        parts.append("</sales>\n")
    else:
        parts.append("<sales/>\n")
    path = os.path.join(out_dir, model.fact_path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(parts)
    return path


def write_dimension(schema: DimensionSchema, instances: Iterable[DimensionInstance],
                    out_dir: str) -> str:
    """One document per dimension; rows keep schema level order, holes are omitted."""
    parts = [XML_DECL]
    body = []
    for inst in instances:
        body.append(f"  <instance id='{inst.instance_id}'>\n")
        for row in inst.rows:
            cells = [
                f"      <{level}>{_esc(row.cells[level])}</{level}>\n"
                for level in schema.levels
                if level in row.cells
            ]
            if cells:
                body.append("    <row>\n")
                body.extend(cells)
                body.append("    </row>\n")
            else:
                body.append("    <row/>\n")
        body.append("  </instance>\n")
    if body:
        parts.append(f"<dimension id='{schema.id}'>\n")
        parts.extend(body)
        parts.append("</dimension>\n")
    else:
        parts.append(f"<dimension id='{schema.id}'/>\n")
    path = os.path.join(out_dir, schema.path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(parts)
    return path


def write_warehouse(warehouse: Warehouse, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_metadata(warehouse.model, out_dir)
    write_facts(warehouse.model, warehouse.facts, out_dir)
    for schema in warehouse.model.dimensions:
        write_dimension(schema, warehouse.instances[schema.id], out_dir)


# --- reading ---------------------------------------------------------------


def _chain_levels(dim_elem: ET.Element, path: str) -> tuple[str, ...]:
    """Walk the single-child nesting back into a level list."""
    levels: list[str] = []
    node = dim_elem
    while True:
        children = list(node)
        if not children:
            return tuple(levels)
        if len(children) > 1:
            raise DocumentError(f"{path}: level chain under {node.tag!r} must nest singly")
        node = children[0]
        levels.append(node.tag)


def read_metadata(in_dir: str) -> DwModel:
    path = os.path.join(in_dir, METADATA_FILE)
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        raise DocumentError(f"{path}: not well-formed at line {exc.position[0]}: {exc}") from exc
    except FileNotFoundError as exc:
        raise DocumentError(f"{path}: missing document") from exc
    if root.tag != "dw-model":
        raise DocumentError(f"{path}: unexpected root element {root.tag!r}")
    fact = root.find("fact")
    if fact is None:
        raise DocumentError(f"{path}: missing fact element")
    dimensions = []
    measures = []
    for child in fact:
        if child.tag == "dimension":
            dim_id = child.get("idref", "")
            eligible, eligible_levels = ELIGIBILITY.get(dim_id, (False, ()))
            dimensions.append(DimensionSchema(
                id=dim_id,
                path=child.get("path", ""),
                levels=_chain_levels(child, path),
                nonstrict_eligible=eligible,
                nonstrict_eligible_levels=eligible_levels,
            ))
        elif child.tag == "measure":
            measures.append(child.get("id", ""))
        else:
            raise DocumentError(f"{path}: unknown element {child.tag!r}")
    return DwModel(fact.get("id", ""), fact.get("path", ""),
                   tuple(dimensions), tuple(measures))


def _iterparse(path: str):
    try:
        yield from ET.iterparse(path, events=("start", "end"))
    except ET.ParseError as exc:
        raise DocumentError(f"{path}: not well-formed at line {exc.position[0]}: {exc}") from exc
    except FileNotFoundError as exc:
        raise DocumentError(f"{path}: missing document") from exc


def iter_instances(in_dir: str, schema: DimensionSchema) -> Iterator[DimensionInstance]:
    """Stream one dimension document in document order, validating strictly.

    Element names are checked on start events at every depth, so an unknown
    element anywhere in the document is rejected by name.
    """
    path = os.path.join(in_dir, schema.path)
    declared = set(schema.levels)
    root = None
    depth = 0
    ordinal = 0
    for event, elem in _iterparse(path):
        if event == "start":
            if depth == 0:
                if elem.tag != "dimension":
                    raise DocumentError(f"{path}: unknown element {elem.tag!r}")
                if elem.get("id") != schema.id:
                    raise DocumentError(
                        f"{path}: dimension id {elem.get('id')!r} does not match {schema.id!r}")
                root = elem
            elif depth == 1 and elem.tag != "instance":
                raise DocumentError(f"{path}: unknown element {elem.tag!r}")
            elif depth == 2 and elem.tag != "row":
                raise DocumentError(f"{path}: unknown element {elem.tag!r}")
            elif depth == 3 and elem.tag not in declared:
                raise DocumentError(f"{path}: unknown element {elem.tag!r}")
            elif depth > 3:
                raise DocumentError(f"{path}: unknown element {elem.tag!r}")
            depth += 1
            continue
        depth -= 1
        if elem.tag == "instance":
            ordinal += 1
            expected = f"{schema.id}#{ordinal}"
            inst_id = elem.get("id")
            if inst_id != expected:
                raise DocumentError(
                    f"{path}: instance id {inst_id!r} out of sequence (expected {expected!r})")
            rows = []
            for row_elem in elem:
                cells = {cell.tag: cell.text or "" for cell in row_elem}
                rows.append(LevelRow(cells))
            if not rows:
                raise DocumentError(f"{path}: instance {inst_id!r} has no rows")
            yield DimensionInstance(inst_id, schema.id, tuple(rows))
            elem.clear()
            if root is not None:
                root.clear()


def iter_facts(in_dir: str, model: DwModel) -> Iterator[FactRecord]:
    """Stream the facts document in document order, validating strictly."""
    path = os.path.join(in_dir, model.fact_path)
    dim_ids = set(model.dimension_ids)
    measures = set(model.measures)
    allowed_children = measures | {"dimref"}
    root = None
    depth = 0
    for event, elem in _iterparse(path):
        if event == "start":
            if depth == 0:
                if elem.tag != "sales":
                    raise DocumentError(f"{path}: unknown element {elem.tag!r}")
                root = elem
            elif depth == 1 and elem.tag != "sale":
                raise DocumentError(f"{path}: unknown element {elem.tag!r}")
            elif depth == 2 and elem.tag not in allowed_children:
                raise DocumentError(f"{path}: unknown element {elem.tag!r}")
            elif depth > 2:
                raise DocumentError(f"{path}: unknown element {elem.tag!r}")
            depth += 1
            continue
        depth -= 1
        if elem.tag == "sale":
            fact_id = elem.get("id", "")
            values: dict[str, str] = {}
            refs: dict[str, str] = {}
            for child in elem:
                if child.tag in measures:
                    values[child.tag] = child.text or ""
                elif child.tag == "dimref":
                    dim = child.get("dim", "")
                    if dim not in dim_ids:
                        raise DocumentError(f"{path}: dimref to unknown dimension {dim!r}")
                    refs[dim] = child.get("idref", "")
                else:
                    raise DocumentError(f"{path}: unknown element {child.tag!r}")
            if set(refs) != dim_ids:
                raise DocumentError(f"{path}: sale {fact_id!r} must reference all dimensions")
            try:
                quantity = int(values["f_quantity"])
                amount = float(values["f_totalamount"])
            except (KeyError, ValueError) as exc:
                raise DocumentError(f"{path}: sale {fact_id!r} has bad measures") from exc
            yield FactRecord(fact_id, quantity, amount, refs)
            elem.clear()
            if root is not None:
                root.clear()


def load_dimensions(in_dir: str, model: DwModel, dim_ids: Collection[str]) -> Indexes:
    """Materialize the indexes of the dimensions named in `dim_ids`; no
    other dimension document is read."""
    return {
        schema.id: {inst.instance_id: inst for inst in iter_instances(in_dir, schema)}
        for schema in model.dimensions
        if schema.id in dim_ids
    }


def _ref_ordinal(ref: str, dim_id: str, path: str) -> int:
    prefix = f"{dim_id}#"
    if not ref.startswith(prefix):
        raise ReferentialError(f"{path}: dangling dimref {ref!r} for dimension {dim_id!r}")
    try:
        return int(ref[len(prefix):])
    except ValueError:
        raise ReferentialError(f"{path}: dangling dimref {ref!r} for dimension {dim_id!r}")


def stream_warehouse(in_dir: str, visitor) -> None:
    """Visit every dimension instance, then every fact, in document order.

    Memory stays bounded: documents are parsed incrementally and released,
    and the fact->instance join is validated against per-dimension instance
    counts (ids are dense), not an id table.  The visitor may implement
    visit_instance(schema, instance) and/or visit_fact(fact).
    """
    model = read_metadata(in_dir)
    visit_instance: Callable | None = getattr(visitor, "visit_instance", None)
    visit_fact: Callable | None = getattr(visitor, "visit_fact", None)
    counts: dict[str, int] = {}
    for schema in model.dimensions:
        n = 0
        for inst in iter_instances(in_dir, schema):
            n += 1
            if visit_instance is not None:
                visit_instance(schema, inst)
        counts[schema.id] = n
    facts_path = os.path.join(in_dir, model.fact_path)
    for fact in iter_facts(in_dir, model):
        for dim_id, ref in fact.dim_refs.items():
            ordinal = _ref_ordinal(ref, dim_id, facts_path)
            if not 1 <= ordinal <= counts[dim_id]:
                raise ReferentialError(
                    f"{facts_path}: fact {fact.fact_id!r} references missing instance {ref!r}")
        if visit_fact is not None:
            visit_fact(fact)


def read_warehouse(in_dir: str) -> Warehouse:
    """Materialize a whole warehouse (round-trip and small-scale use)."""
    model = read_metadata(in_dir)
    instances = {s.id: list(iter_instances(in_dir, s)) for s in model.dimensions}
    facts = list(iter_facts(in_dir, model))
    return Warehouse(model, facts, instances)


def document_sizes(in_dir: str, model: DwModel | None = None) -> dict[str, int]:
    if model is None:
        model = read_metadata(in_dir)
    return {name: os.path.getsize(os.path.join(in_dir, name))
            for name in layout_files(model)}
