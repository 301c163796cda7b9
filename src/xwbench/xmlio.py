"""Reading and writing the six-document warehouse layout.

A warehouse directory holds dw-model.xml (metadata), f_sale.xml (facts) and
one document per dimension (d_part.xml, d_customer.xml, d_supplier.xml,
d_date.xml).  The element grammar is documented in docs/document-grammar.md.
Writers emit a fixed byte form (two-space indent, single-quoted attributes,
fixed attribute order) so equal inputs give byte-identical documents.
Readers feed each document in fixed 32 KiB chunks to an xml.etree XMLParser
whose target validates every element as it starts and builds the output
records directly: no Element tree and no event objects are made, so parsing
leaves little for the cyclic GC to track, and no whole document is ever held.
Equal level values read from one dimension document share one str object,
so the indexes hold each distinct value once and equal group-key components
compare by identity.
Instance ids are dense per dimension (part#1..part#N): a fact's reference
is the instance's 1-based ordinal, so an index is a list in document order
and the fact/instance join is a range check (FactColumns.check_refs).
load_facts keeps the facts document as columns (one array of ordinals per
loaded dimension, one per measure) rather than as one record per fact.
"""

from __future__ import annotations

import os
import xml.etree.ElementTree as ET
from array import array
from dataclasses import dataclass
from typing import Collection, Iterable, Iterator

from .errors import DocumentError, ReferentialError
from .model import (
    DimensionInstance,
    DimensionSchema,
    DwModel,
    F_QUANTITY,
    F_TOTALAMOUNT,
    FactRecord,
    Warehouse,
    default_model,
)

METADATA_FILE = "dw-model.xml"

# Dimension id -> its instances in document order: instance `dim#n` sits at
# position n - 1, so a fact's ordinal joins it to its instance.
Indexes = dict[str, list[DimensionInstance]]
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
                f"      <{level}>{_esc(row[level])}</{level}>\n"
                for level in schema.levels
                if level in row
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
    except OSError as exc:
        raise DocumentError(f"{path}: cannot read: {exc.strerror}") from exc
    if root.tag != "dw-model":
        raise DocumentError(f"{path}: unexpected root element {root.tag!r}")
    fact = root.find("fact")
    if fact is None:
        raise DocumentError(f"{path}: missing fact element")
    # Non-strict eligibility is intrinsic to the sales model (a property of
    # what the dimensions mean), so it is taken from the model, not the file.
    eligible = {schema.id for schema in default_model().dimensions if schema.nonstrict_eligible}
    dimensions = []
    measures = []
    for child in fact:
        if child.tag == "dimension":
            dim_id = child.get("idref", "")
            dimensions.append(DimensionSchema(
                id=dim_id,
                path=child.get("path", ""),
                levels=_chain_levels(child, path),
                nonstrict_eligible=dim_id in eligible,
            ))
        elif child.tag == "measure":
            measures.append(child.get("id", ""))
        else:
            raise DocumentError(f"{path}: unknown element {child.tag!r}")
    return DwModel(fact.get("id", ""), fact.get("path", ""),
                   tuple(dimensions), tuple(measures))


# Bytes handed to the parser per feed: large enough that the per-feed Python
# work (one read, one feed, one hand-over of finished records) vanishes
# against parsing, small enough that the buffer and the records finished
# within one chunk stay a few hundred KiB whatever the document's size.
# 32 KiB parses no slower than 64 KiB and leaves room in a stream's peak for
# the shared-value table, which holds each distinct value of the document
# (about 2,600 strings for the days, months and years of d_date.xml).
_CHUNK_BYTES = 32 * 1024


def _stream(path: str, target) -> Iterator:
    """Feed the document at `path` to an XMLParser driving `target` and yield
    the records the target finishes (`target.records`), chunk by chunk."""
    parser = ET.XMLParser(target=target)
    records = target.records
    try:
        with open(path, "rb") as fh:
            while chunk := fh.read(_CHUNK_BYTES):
                parser.feed(chunk)
                if records:
                    yield from records
                    records.clear()
        parser.close()
        yield from records
    except ET.ParseError as exc:
        raise DocumentError(f"{path}: not well-formed at line {exc.position[0]}: {exc}") from exc
    except FileNotFoundError as exc:
        raise DocumentError(f"{path}: missing document") from exc
    except OSError as exc:
        raise DocumentError(f"{path}: cannot read: {exc.strerror}") from exc


class _DimensionTarget:
    """Parser target for one dimension document: checks every element name as
    it starts and finishes one DimensionInstance per closed instance."""

    def __init__(self, path: str, schema: DimensionSchema):
        self.path = path
        self.dim_id = schema.id
        self.declared = frozenset(schema.levels)
        self.records: list[DimensionInstance] = []
        self.depth = 0
        self.ordinal = 0
        self.inst_id: str | None = None
        self.rows: list[dict[str, str]] = []
        self.cells: dict[str, str] = {}
        # Text arrives in pieces (expat splits it at entity references and
        # chunk edges); a cell's value is the join of the pieces since its start.
        self.text: list[str] = []
        self.data = self.text.append
        # The first object read for each distinct value: every equal value
        # of this document is stored as that one object.
        self.shared = {}.setdefault

    def start(self, tag: str, attrib: dict[str, str]) -> None:
        depth = self.depth
        self.depth = depth + 1
        if depth == 3 and tag in self.declared:
            self.text.clear()
        elif depth == 2 and tag == "row":
            self.cells = {}
        elif depth == 1 and tag == "instance":
            self.inst_id = attrib.get("id")
            self.rows = []
        elif depth == 0 and tag == "dimension":
            if attrib.get("id") != self.dim_id:
                raise DocumentError(f"{self.path}: dimension id {attrib.get('id')!r} "
                                    f"does not match {self.dim_id!r}")
        else:
            raise DocumentError(f"{self.path}: unknown element {tag!r}")

    def end(self, tag: str) -> None:
        self.depth = depth = self.depth - 1
        if depth == 3:
            value = "".join(self.text)
            self.cells[tag] = self.shared(value, value)
        elif depth == 2:
            self.rows.append(self.cells)
        elif depth == 1:
            self.ordinal += 1
            expected = f"{self.dim_id}#{self.ordinal}"
            if self.inst_id != expected:
                raise DocumentError(f"{self.path}: instance id {self.inst_id!r} "
                                    f"out of sequence (expected {expected!r})")
            if not self.rows:
                raise DocumentError(f"{self.path}: instance {self.inst_id!r} has no rows")
            self.records.append(DimensionInstance(self.inst_id, tuple(self.rows)))
            self.text.clear()

    def close(self) -> None:
        pass


class _FactsTarget:
    """Parser target for the facts document: checks every element name as it
    starts and finishes one FactRecord per closed sale."""

    def __init__(self, path: str, model: DwModel):
        self.path = path
        self.dim_ids = frozenset(model.dimension_ids)
        self.measures = frozenset(model.measures)
        self.records: list[FactRecord] = []
        self.depth = 0
        self.fact_id = ""
        self.values: dict[str, str] = {}
        self.refs: dict[str, str] = {}
        # As in _DimensionTarget: a measure's value is the join of its pieces.
        self.text: list[str] = []
        self.data = self.text.append

    def start(self, tag: str, attrib: dict[str, str]) -> None:
        depth = self.depth
        self.depth = depth + 1
        if depth == 2:
            if tag in self.measures:
                self.text.clear()
            elif tag == "dimref":
                self.refs[attrib.get("dim", "")] = attrib.get("idref", "")
            else:
                raise DocumentError(f"{self.path}: unknown element {tag!r}")
        elif depth == 1 and tag == "sale":
            self.fact_id = attrib.get("id", "")
            self.values = {}
            self.refs = {}
        elif depth != 0 or tag != "sales":
            raise DocumentError(f"{self.path}: unknown element {tag!r}")

    def end(self, tag: str) -> None:
        self.depth = depth = self.depth - 1
        if depth == 2:
            if tag != "dimref":
                self.values[tag] = "".join(self.text)
        elif depth == 1:
            refs = self.refs
            if refs.keys() != self.dim_ids:
                for dim in refs:
                    if dim not in self.dim_ids:
                        raise DocumentError(
                            f"{self.path}: dimref to unknown dimension {dim!r}")
                raise DocumentError(
                    f"{self.path}: sale {self.fact_id!r} must reference all dimensions")
            try:
                quantity = int(self.values["f_quantity"])
                amount = float(self.values["f_totalamount"])
            except (KeyError, ValueError) as exc:
                raise DocumentError(
                    f"{self.path}: sale {self.fact_id!r} has bad measures") from exc
            self.records.append(FactRecord(self.fact_id, quantity, amount, refs))
            self.text.clear()

    def close(self) -> None:
        pass


def iter_instances(in_dir: str, schema: DimensionSchema) -> Iterator[DimensionInstance]:
    """Stream one dimension document in document order, validating strictly.

    Element names are checked as each element starts, at every depth, so an
    unknown element anywhere in the document is rejected by name.
    """
    path = os.path.join(in_dir, schema.path)
    return _stream(path, _DimensionTarget(path, schema))


def iter_facts(in_dir: str, model: DwModel) -> Iterator[FactRecord]:
    """Stream the facts document in document order, validating strictly."""
    path = os.path.join(in_dir, model.fact_path)
    return _stream(path, _FactsTarget(path, model))


def load_dimensions(in_dir: str, model: DwModel, dim_ids: Collection[str]) -> Indexes:
    """Materialize the indexes of the dimensions named in `dim_ids`; no
    other dimension document is read."""
    return {schema.id: list(iter_instances(in_dir, schema))
            for schema in model.dimensions if schema.id in dim_ids}


def _ref_ordinal(ref: str, dim_id: str, path: str) -> int:
    """The ordinal n of `ref`, which must read `{dim_id}#{n}` with n in ASCII
    digits and no leading zero: one spelling per instance, as written."""
    prefix = f"{dim_id}#"
    digits = ref[len(prefix):]
    if (ref.startswith(prefix) and digits.isdigit() and digits.isascii()
            and digits[0] != "0"):
        return int(digits)
    raise ReferentialError(f"{path}: dangling dimref {ref!r} for dimension {dim_id!r}")


@dataclass(frozen=True)
class FactColumns:
    """The facts document column-wise, in document order: per loaded
    dimension, each fact's referenced instance ordinal (1-based); per
    measure, each fact's value."""

    path: str
    ordinals: dict[str, array]
    measures: dict[str, array]

    def __len__(self) -> int:
        return len(self.measures[F_QUANTITY])

    def check_refs(self, dim_id: str, count: int) -> None:
        """Raise ReferentialError if a fact references past the `count`
        instances of `dim_id`."""
        column = self.ordinals[dim_id]
        if column and (top := max(column)) > count:
            raise ReferentialError(
                f"{self.path}: sale {column.index(top) + 1} references missing "
                f"instance '{dim_id}#{top}'")


def load_facts(in_dir: str, model: DwModel, dim_ids: Collection[str]) -> FactColumns:
    """Read the facts document into columns, keeping the references to the
    dimensions named in `dim_ids` only."""
    path = os.path.join(in_dir, model.fact_path)
    ordinals = {dim_id: array("q") for dim_id in model.dimension_ids if dim_id in dim_ids}
    quantity, amount = array("q"), array("d")
    joins = [(dim_id, column.append) for dim_id, column in ordinals.items()]
    add_quantity, add_amount = quantity.append, amount.append
    try:
        for fact in iter_facts(in_dir, model):
            add_quantity(fact.f_quantity)
            add_amount(fact.f_totalamount)
            refs = fact.dim_refs
            for dim_id, add in joins:
                add(_ref_ordinal(refs[dim_id], dim_id, path))
    except OverflowError as exc:
        raise DocumentError(
            f"{path}: sale {fact.fact_id!r} holds a number beyond 64 bits") from exc
    return FactColumns(path, ordinals, {F_QUANTITY: quantity, F_TOTALAMOUNT: amount})


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
