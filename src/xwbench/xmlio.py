"""Reading and writing the six-document warehouse layout.

A warehouse directory holds dw-model.xml (metadata), f_sale.xml (facts) and
one document per dimension (d_part.xml, d_customer.xml, d_supplier.xml,
d_date.xml), in the grammar of docs/document-grammar.md.  Writers clear the
old dw-model.xml and stamp first (clear_layout), emit a fixed byte form
(two-space indent, single-quoted attributes, fixed attribute order), one
sale or instance at a time, dw-model.xml last, and refuse a value that form
cannot hold.  Readers accept exactly that form, so every document
they accept is well-formed XML, and this module alone decides what is accepted.
The metadata's lines are one function's text (_metadata_lines): written
as it renders, and read by rendering the model they spell and comparing.
The other readers match one regex per instance or sale, take each document
in 32 KiB chunks and hand over its instances, or its sales as columns of
text, before reading the next.  Other text raises DocumentError at its line.
Instance ids are dense per dimension (part#1..part#N): a fact's reference
is the instance's 1-based ordinal, so an index is a list in document order
and the fact/instance join is a range check (FactColumns.check_refs).
A query's load reads only what it groups by: rows hold the grouped level
alone, equal rows one shared dict, and load_facts fills its columns (one
array of ordinals per loaded dimension, one per measure) straight from
each chunk's matches.  Group membership is still resolved at query time.
Equal level values read from one document share one str object.
"""

from __future__ import annotations

import codecs
import contextlib
import operator
import os
import re
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Collection, Iterable, Iterator, Mapping

from .errors import DocumentError, ReferentialError
from .model import (
    DimensionInstance,
    DimensionSchema,
    DwModel,
    F_QUANTITY,
    F_TOTALAMOUNT,
    FactRecord,
    Warehouse,
)

METADATA_FILE = "dw-model.xml"
# The provenance harness.generate_dataset writes beside the six documents.
STAMP_FILE = "dataset-stamp.json"

# Dimension id -> its instances in document order: instance `dim#n` sits at
# position n - 1, so a fact's ordinal joins it to its instance.
Indexes = dict[str, list[DimensionInstance]]
XML_DECL = "<?xml version='1.0' encoding='UTF-8'?>\n"

_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", "'": "&apos;"}
# Characters with no written form: XML has no Char for them, or reads '\r'
# as '\n'.  Classes are written negated: spelled as ranges of what they
# allow, each costs milliseconds to compile.
_NO_FORM = "\x00-\x08\x0b-\x1f\ud800-\udfff\ufffe\uffff"
# A single-quoted attribute value that XML reads as written: no '<', '&',
# "'", nor the tab and line ends it would turn into spaces.
_ATTR = f"[^<&'\t\n{_NO_FORM}]*"
_PLAIN_ATTR = re.compile(_ATTR).fullmatch
_HAS_NO_FORM = re.compile(f"[{_NO_FORM}]").search


def _is_plain(value: str) -> bool:
    """Whether XML reads `value`, written unescaped as an attribute value, as
    written.  Printable text without "'", '<' or '&' does: no regex is run."""
    return ((value.isprintable() and "'" not in value and "<" not in value
             and "&" not in value) or _PLAIN_ATTR(value) is not None)


def _escape(value: str) -> str:
    """`value` as written in text; ValueError if a character has no written form."""
    if not value.isprintable() and _HAS_NO_FORM(value):
        raise ValueError(f"level value {value!r} holds a character with no written form")
    if "&" in value or "<" in value or ">" in value or "'" in value:
        for raw, ref in _ESCAPES.items():
            value = value.replace(raw, ref)
    return value


class _Table(dict):
    """Key -> make(key), made once per key: one table per document."""

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        made = self[key] = self.make(key)
        return made


def layout_files(model: DwModel) -> list[str]:
    return [METADATA_FILE, model.fact_path] + [s.path for s in model.dimensions]


# A level name, written as an element name: an ASCII XML name without ':'.
_LEVEL_NAME = re.compile("[A-Za-z_][A-Za-z0-9_.-]*").fullmatch


def _metadata_lines(model: DwModel) -> Iterator[str]:
    """The lines of dw-model.xml inside its root, as written: the fact
    element around each dimension's level chain, nested finest-outermost on
    one line, and the measures.  Each line is checked before it is made:
    ValueError says what has no written form (an id or path that is not a
    plain attribute value, a dimension declared twice or whose levels are
    not one or more XML names, measures without f_quantity and
    f_totalamount)."""
    def plain(*values: str) -> None:
        if (bad := next((v for v in values if not _is_plain(v)), None)) is not None:
            raise ValueError(f"{bad!r} is not a plain attribute value")

    plain(model.fact_id, model.fact_path)
    yield f"  <fact id='{model.fact_id}' path='{model.fact_path}'>\n"
    for i, schema in enumerate(model.dimensions):
        dim_id, levels = schema.id, schema.levels
        plain(dim_id, schema.path)
        if dim_id in model.dimension_ids[:i]:
            raise ValueError(f"dimension {dim_id!r} declared twice")
        if not (levels and all(map(_LEVEL_NAME, levels))):
            raise ValueError(f"dimension {dim_id!r} has levels {levels!r}, "
                             "not one or more XML names")
        closing = "".join([f"</{name}>" for name in reversed(levels[:-1])])
        yield (f"    <dimension idref='{dim_id}' path='{schema.path}'>"
               f"<{'><'.join(levels)}/>{closing}</dimension>\n")
    for measure in model.measures:
        plain(measure)
        yield f"    <measure id='{measure}'/>\n"
    if not {F_QUANTITY, F_TOTALAMOUNT} <= set(model.measures):
        raise ValueError(f"measures must include {F_QUANTITY!r} and {F_TOTALAMOUNT!r}")
    yield "  </fact>\n"


def write_metadata(model: DwModel, out_dir: str) -> str:
    """Emit dw-model.xml; a model with no written form raises DocumentError."""
    path = os.path.join(out_dir, METADATA_FILE)
    try:
        lines = list(_metadata_lines(model))
    except ValueError as exc:
        raise DocumentError(f"{path}: {exc}") from None
    return _write_document(path, "dw-model", "", iter(lines))


def format_amount(cents: int) -> str:
    """An amount of `cents` written in currency units, with exactly two
    fractional digits: 123456 is 1234.56."""
    return f"{cents // 100}.{cents % 100:02d}"


def _write_document(path: str, root: str, attrs: str, bodies: Iterator[str]) -> str:
    """Write the declaration and the root element around `bodies`, each
    written as soon as it is made; a root with no body is self-closed."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(XML_DECL)
        if (first := next(bodies, None)) is None:
            fh.write(f"<{root}{attrs}/>\n")
        else:
            fh.writelines([f"<{root}{attrs}>\n", first])
            fh.writelines(bodies)
            fh.write(f"</{root}>\n")
    return path


def write_facts(model: DwModel, facts: Iterable[FactRecord], out_dir: str) -> str:
    """The facts document, written one sale at a time; a sale whose id or a
    reference is not a plain attribute value, or whose measure is not an int
    from 0 to _MEASURE_MAX, raises DocumentError."""
    path = os.path.join(out_dir, model.fact_path)
    dim_ids = model.dimension_ids
    refs_of = operator.itemgetter(*dim_ids) if dim_ids else lambda refs: ()
    # A sale's dimref lines, with a %s for each reference.
    dimrefs = "".join(f"    <dimref dim='{dim_id.replace('%', '%%')}' idref='%s'/>\n"
                      for dim_id in dim_ids)

    def sales() -> Iterator[str]:
        for fact in facts:
            refs = refs_of(fact.dim_refs)
            # Plainness is a property of each character: check the ids joined.
            if not _is_plain(fact.fact_id + "".join(refs)):
                raise DocumentError(f"{path}: sale {fact.fact_id!r} has an id or a "
                                    "reference that is not a plain attribute value")
            quantity, cents = fact.f_quantity, fact.f_totalamount
            if not (type(quantity) is int and type(cents) is int
                    and 0 <= quantity <= _MEASURE_MAX and 0 <= cents <= _MEASURE_MAX):
                raise DocumentError(f"{path}: sale {fact.fact_id!r} has a measure that is "
                                    f"not an integer from 0 to {_MEASURE_MAX}")
            yield (f"  <sale id='{fact.fact_id}'>\n"
                   f"    <f_quantity>{quantity}</f_quantity>\n"
                   f"    <f_totalamount>{format_amount(cents)}</f_totalamount>\n"
                   f"{dimrefs % refs}  </sale>\n")

    return _write_document(path, "sales", "", sales())


def _instance_text(inst: DimensionInstance, levels: tuple[str, ...], path: str,
                   escaped: _Table) -> str:
    parts = [f"  <instance id='{inst.instance_id}'>\n"]
    try:
        if not _is_plain(inst.instance_id):
            raise ValueError("its id is not a plain attribute value")
        for row in inst.rows:
            cells = [f"      <{level}>{escaped[row[level]]}</{level}>\n"
                     for level in levels if level in row]
            if cells:
                parts.append("    <row>\n")
                parts.extend(cells)
                parts.append("    </row>\n")
            else:
                parts.append("    <row/>\n")
    except ValueError as exc:
        raise DocumentError(f"{path}: instance {inst.instance_id!r}: {exc}") from None
    parts.append("  </instance>\n")
    return "".join(parts)


def write_dimension(schema: DimensionSchema, instances: Iterable[DimensionInstance],
                    out_dir: str) -> str:
    """One document per dimension, written one instance at a time; rows keep
    schema level order, holes are omitted.  An instance with an id or a level
    value that has no written form raises DocumentError."""
    path = os.path.join(out_dir, schema.path)
    escaped = _Table(_escape)
    return _write_document(path, "dimension", f" id='{schema.id}'",
                           (_instance_text(inst, schema.levels, path, escaped)
                            for inst in instances))


def clear_layout(out_dir: str) -> None:
    """Make `out_dir` and remove its dw-model.xml and stamp, so neither a
    reader nor a stamp vouches for it until a writer writes them again."""
    os.makedirs(out_dir, exist_ok=True)
    for name in (METADATA_FILE, STAMP_FILE):
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, name))


def write_warehouse(warehouse: Warehouse, out_dir: str) -> None:
    """Write the six documents into `out_dir`, in place.  The directory is
    cleared first (clear_layout) and dw-model.xml written last, so no reader
    accepts what a failed write leaves, and no earlier stamp survives it."""
    clear_layout(out_dir)
    write_facts(warehouse.model, warehouse.facts, out_dir)
    for schema in warehouse.model.dimensions:
        write_dimension(schema, warehouse.instances[schema.id], out_dir)
    write_metadata(warehouse.model, out_dir)


# --- reading ---------------------------------------------------------------


# dw-model.xml's parts, each taken from a line of the written shape with
# any text in its values; read_metadata's comparison rejects the rest.
_META_FACT = re.compile("^  <fact id='([^']*)' path='([^']*)'>$", re.M).search
_META_DIMENSIONS = re.compile(
    "^    <dimension idref='([^']*)' path='([^']*)'>(.*)</dimension>$", re.M).findall
_META_MEASURES = re.compile("^    <measure id='([^']*)'/>$", re.M).findall
_META_LEVELS = re.compile("<([^/>]+)").findall
_META_LINES = re.compile("[^\n]*\n|[^\n]+").findall


def open_document(path: str):
    """Open the document at `path` to read its bytes, or raise DocumentError:
    the document is missing, or it cannot be read."""
    try:
        return open(path, "rb")
    except FileNotFoundError as exc:
        raise DocumentError(f"{path}: missing document") from exc
    except OSError as exc:
        raise DocumentError(f"{path}: cannot read: {exc.strerror}") from exc


def read_metadata(in_dir: str) -> DwModel:
    """Read dw-model.xml: take out the model its lines spell, render it as
    write_metadata does, and accept the document only if it is that text.
    At the first line that differs, or that has no written form, raise
    DocumentError naming it."""
    path = os.path.join(in_dir, METADATA_FILE)
    # A byte that is not UTF-8 reads as a lone surrogate, which no written
    # form holds, so its line is rejected with the others.
    with open_document(path) as fh:
        text = fh.read().decode("utf-8", "surrogateescape")
    fact_id, fact_path = fact.groups() if (fact := _META_FACT(text)) else ("", "")
    model = DwModel(fact_id, fact_path, tuple(
        DimensionSchema(dim_id, dim_path, tuple(_META_LEVELS(chain_text)))
        for dim_id, dim_path, chain_text in _META_DIMENSIONS(text)),
        tuple(_META_MEASURES(text)))
    written = chain([XML_DECL, "<dw-model>\n"], _metadata_lines(model), ["</dw-model>\n"])
    try:
        # Each line with its end, then "" where both texts end.
        for number, line in enumerate([*_META_LINES(text), ""], 1):
            if next(written, "") != line:
                raise ValueError("not in the written form" if line else "document ends early")
    except ValueError as exc:
        found = line.rstrip("\n")
        raise DocumentError(f"{path}: line {number}: {exc}"
                            + (f": {found!r}" if found else "")) from None
    return model


# Bytes read per chunk: large enough that the per-chunk Python work (one
# read, one regex pass, one hand-over of finished records) vanishes against
# matching, small enough that a chunk's buffer and records stay a few hundred
# KiB.  32 KiB reads no slower than 64 KiB and leaves room in a stream's peak
# for the shared-value table (about 2,600 strings for all of d_date.xml).
_CHUNK_BYTES = 32 * 1024

# A character that stands for itself in text; "'" is written as &apos;.
_CHAR = f"[^<>&'{_NO_FORM}]"
# Text as _escape writes it, unrolled: a per-character alternation costs as
# much as an XML parser.  (No atomic groups: Python 3.10 has none.)
_TEXT = f"{_CHAR}*(?:(?:{'|'.join(_ESCAPES.values())}){_CHAR}*)*"
# The measures' spellings, as write_facts writes them: ASCII digits with no
# leading zero, and for an amount a point and exactly two digits after them.
_QUANTITY = "0|[1-9][0-9]*"
_AMOUNT = rf"(?:{_QUANTITY})\.[0-9]{{2}}"
# The largest measure a fact column, an array("q"), holds.
_MEASURE_MAX = 2**63 - 1
# An instance's ordinal as its id spells it: ASCII digits, no leading zero.
_ORDINAL = "[1-9][0-9]*"
# Text this long without a record's end is rejected, so a document in
# another spelling is never buffered whole.
_RECORD_LIMIT = 256 * 1024


def _rows(levels: tuple[str, ...], value: str, kept: Collection[str] | None = None) -> str:
    """A row as _instance_text writes it, each cell's text after its tag
    name matching `value` if its level is in `kept` (default: every level),
    and any text up to the next tag if not."""
    cells = "".join(f"(?:      <{re.escape(level)}"
                    f"{value if kept is None or level in kept else '>[^<]*'}"
                    f"</{re.escape(level)}>\n)?" for level in levels)
    return f"    <row/>\n|    <row>\n{cells}    </row>\n"


def _unescape(text: str) -> str:
    """Undo _escape: '&amp;' last, as it was escaped first."""
    for raw, ref in reversed(_ESCAPES.items()):
        text = text.replace(ref, raw)
    return text


class _Unwritten(Exception):
    """Raised with (pos, message) at text[pos], where what the writers write
    ends: with the error's own message, or with "" to name the first line
    from there that is not a line of the written form."""


def _line_number(path: str, chars: int) -> int:
    """The number of the line that holds character `chars` (0-based) of the
    document at `path`."""
    number = 1
    with open(path, encoding="utf-8", errors="replace", newline="") as fh:
        while chars > 0 and (piece := fh.read(min(chars, _CHUNK_BYTES))):
            number += piece.count("\n")
            chars -= len(piece)
    return number


def _written(path: str, root: str, attrs: str, last: str, records,
             lines: list[str]) -> Iterator:
    """Read the document at `path` as the writers write it: the declaration,
    then `root` with `attrs` around records that each end with the line
    `last`, or the root self-closed.  `records(text, start, end)` makes the
    records written in text[start:end] (a list, cleared once handed over)
    and raises _Unwritten where one is not in their form.  Hand them over chunk by chunk.

    Anything else raises DocumentError naming the line.  Without a message
    of its own, that is the first line that is neither a root line nor
    matches one of the patterns `lines` (a record's other lines, their end
    excluded); if every line is one of these but out of the written order,
    it is the first line of the record, or of the opening or closing.
    """
    opening = f"{XML_DECL}<{root}{attrs}>\n"
    decode = codecs.getincrementaldecoder("utf-8")().decode
    # `start` is where the next record begins: past the opening until the
    # first records are handed over, which drops it from `text`.  `offset`
    # counts the characters dropped.
    text, start, offset = "", len(opening), 0
    try:
        with open_document(path) as fh:
            while chunk := fh.read(_CHUNK_BYTES):
                text += decode(chunk)
                at = text.rfind(last, start)
                if at < 0:
                    if len(text) > _RECORD_LIMIT:
                        raise _Unwritten(start, f"no record ends within {_RECORD_LIMIT} "
                                                "characters")
                    continue
                if start and not text.startswith(opening):
                    raise _Unwritten(0, "")
                end = at + len(last)
                found = records(text, start, end)
                offset += end
                text, start = text[end:], 0
                yield from found
                # A chunk's records are let go before the next is read.
                found.clear()
            text += decode(b"", True)
            if text != (f"{XML_DECL}<{root}{attrs}/>\n" if start else f"</{root}>\n"):
                raise _Unwritten(0, "" if text else f"document ends before '</{root}>'")
    except _Unwritten as stop:
        pos, message = stop.args
        if not message:
            line = re.compile("(?:{})\n".format("|".join([
                re.escape(XML_DECL[:-1]), re.escape(f"<{root}{attrs}") + "/?>",
                re.escape(f"</{root}>"), re.escape(last[:-1]), *lines]))).match
            end = text.find(last, pos)
            end = len(text) if end < 0 else end + len(last)
            at = pos
            while at < end and (match := line(text, at, end)):
                at = match.end()
            pos, message = ((at, "not in the written form") if at < end
                            else (pos, "lines not in the written order"))
        found = text[pos:pos + 120].partition("\n")[0]
        raise DocumentError(f"{path}: line {_line_number(path, offset + pos)}: {message}"
                            + (f": {found!r}" if found else "")) from None
    except UnicodeDecodeError as exc:
        pos = offset + len(text) + len(exc.object[:exc.start].decode("utf-8"))
        raise DocumentError(f"{path}: line {_line_number(path, pos)}: not UTF-8") from None


def iter_instances(in_dir: str, schema: DimensionSchema,
                   keep: Collection[str] | None = None) -> Iterator[DimensionInstance]:
    """Stream one dimension document in document order: instances `dim#1`,
    `dim#2`, ... in sequence, rows holding cells in schema order.  Instances
    are matched one at a time and their rows found in place, so no copy of a
    chunk's text is held beside its records.  With `keep`, every level is
    still checked, but rows hold only the levels in `keep`, and equal rows
    are one dict, shared across instances, which no caller may change."""
    path = os.path.join(in_dir, schema.path)
    dim_id, levels = schema.id, schema.levels
    instances = re.compile(f"  <instance id='({re.escape(dim_id)}#[0-9]+)'>\n"
                           f"(?:{_rows(levels, '>' + _TEXT)})+  </instance>\n").finditer
    # Rows are found only in instances already matched whole, so any text
    # up to the next tag is a cell's.  A captured cell is '>' and its text,
    # so a present empty cell is truthy and an absent one ('') is not.
    kept = levels if keep is None else tuple(level for level in levels if level in keep)
    cells_of = re.compile(_rows(levels, "(>[^<]*)", kept)).findall
    # str() of a str is itself: the first object read for each value.
    value = _Table(str).__getitem__

    def make_row(cells) -> dict[str, str]:
        return {level: value(_unescape(cell[1:]) if "&" in cell else cell[1:])
                for level, cell in zip(kept, (cells,) if isinstance(cells, str) else cells)
                if cell}

    row = make_row if keep is None else _Table(make_row).__getitem__
    ordinal = 0

    def records(text: str, pos: int, end: int) -> list[DimensionInstance]:
        nonlocal ordinal
        out = []
        for match in instances(text, pos, end):
            if match.start() != pos:
                break
            ordinal += 1
            inst_id = match[1]
            if inst_id != f"{dim_id}#{ordinal}":
                raise _Unwritten(pos, f"instance id {inst_id!r} out of sequence "
                                      f"(expected '{dim_id}#{ordinal}')")
            body, pos = match.end(1), match.end()
            # With no level kept, count rows: only their first lines start "    <row".
            out.append(DimensionInstance(inst_id, tuple(map(row, cells_of(text, body, pos)))
                       if kept else (row(()),) * text.count("\n    <row", body, pos)))
        if pos != end:
            raise _Unwritten(pos, "")
        return out

    return _written(path, "dimension", f" id='{dim_id}'", "  </instance>\n", records, [
        f"  <instance id='{re.escape(dim_id)}#[0-9]+'>", "    <row/?>", "    </row>",
        *(f"      <{level}>{_TEXT}</{level}>" for level in map(re.escape, levels))])


def _sale_form(dim_ids: tuple[str, ...], joined: Collection[str] = ()):
    """A sale as write_facts writes it, a reference to a dimension in
    `joined` captured as its ordinal's digits: the pattern, and the length of
    its fixed text, which a NUL (no plain id holds) splits at each field."""
    fixed = ("  <sale id='\0'>\n"
             f"    <{F_QUANTITY}>\0</{F_QUANTITY}>\n"
             f"    <{F_TOTALAMOUNT}>\0</{F_TOTALAMOUNT}>\n"
             + "".join(f"    <dimref dim='{d}' idref='{d + '#' if d in joined else ''}\0'/>\n"
                       for d in dim_ids)
             + "  </sale>\n").split("\0")
    fields = (_ATTR, _QUANTITY, _AMOUNT, *(_ORDINAL if d in joined else _ATTR for d in dim_ids))
    return re.compile(re.escape(fixed[0]) + "".join(
        f"({field})" + re.escape(text) for field, text in zip(fields, fixed[1:]))
    ), sum(map(len, fixed))


def iter_facts(in_dir: str, model: DwModel, dim_ids: Collection[str] = ()) -> Iterator:
    """Stream the facts document in document order, one chunk at a time, as
    columns of its sales' text: ids, quantities, amounts, then one column of
    references per dimension in metadata order.  A reference to a dimension
    in `dim_ids` is the n of `{dim_id}#{n}`; another spelling is a
    ReferentialError."""
    path = os.path.join(in_dir, model.fact_path)
    all_ids = model.dimension_ids
    written, _ = _sale_form(all_ids)
    form, fixed_length = _sale_form(all_ids, dim_ids)

    def records(text: str, start: int, end: int) -> list:
        found = form.findall(text, start, end)
        # findall skips what does not match: the matches tile the text only
        # if their lengths add up to it.
        if fixed_length * len(found) + sum(map(len, chain.from_iterable(found))) != end - start:
            while match := form.match(text, start, end):
                start = match.end()
            # A sale in the written form but for a joined reference's spelling.
            if dim_ids and (match := written.match(text, start, end)):
                dim_id, ref = next(
                    (d, ref) for d, ref in zip(all_ids, match.groups()[3:])
                    if d in dim_ids and not re.fullmatch(f"{re.escape(d)}#{_ORDINAL}", ref))
                raise ReferentialError(
                    f"{path}: dangling dimref {ref!r} for dimension {dim_id!r}")
            raise _Unwritten(start, "")
        return [tuple(zip(*found))]

    # A sale's lines but its last, each the written form's pattern for it.
    return _written(path, "sales", "", "  </sale>\n", records,
                    written.pattern.split(re.escape("\n"))[:-2])


def load_dimensions(in_dir: str, model: DwModel,
                    keep: Mapping[str, Collection[str] | None]) -> Indexes:
    """Materialize the indexes of the dimensions `keep` names, each row
    holding the levels it maps the dimension to (None: every level); no
    other dimension document is read."""
    return {schema.id: list(iter_instances(in_dir, schema, keep[schema.id]))
            for schema in model.dimensions if schema.id in keep}


@dataclass(frozen=True)
class FactColumns:
    """The facts document column-wise, in document order: per loaded
    dimension, each fact's referenced instance ordinal (1-based); per
    measure, each fact's value, the amount in cents."""

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


def _cents(amount: str) -> int:
    """An amount spelled as write_facts writes it (digits, '.', two digits)
    read as exact integer cents: its digits without the point."""
    return int(amount.replace(".", ""))


def load_facts(in_dir: str, model: DwModel, dim_ids: Collection[str]) -> FactColumns:
    """Read the facts document into columns, keeping the references to the
    dimensions named in `dim_ids` only; each chunk extends them at once."""
    path = os.path.join(in_dir, model.fact_path)
    ordinals = {dim_id: array("q") for dim_id in model.dimension_ids if dim_id in dim_ids}
    quantity, amount = array("q"), array("q")
    # Each column, how its text is read, and the field it is read from.
    fills = [(quantity, int, 1), (amount, _cents, 2)] + [
        (ordinals[dim_id], int, 3 + i) for i, dim_id in enumerate(model.dimension_ids)
        if dim_id in ordinals]
    for fields in iter_facts(in_dir, model, ordinals):
        done = len(quantity)
        try:
            for column, read, field in fills:
                column.extend(map(read, fields[field]))
        except OverflowError as exc:
            # The column holds every number of the chunk before the one too large.
            raise DocumentError(f"{path}: sale {fields[0][len(column) - done]!r} "
                                "holds a number beyond 64 bits") from exc
    return FactColumns(path, ordinals, {F_QUANTITY: quantity, F_TOTALAMOUNT: amount})


def document_sizes(in_dir: str) -> dict[str, int]:
    return {name: os.path.getsize(os.path.join(in_dir, name))
            for name in layout_files(read_metadata(in_dir))}
