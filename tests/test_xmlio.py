"""Document layout: byte form, round trips, streaming, strict validation."""

import dataclasses
import gc
import os
import pathlib
import re
import sys
import tempfile
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_reads_back, edit, make_instance, reference_sale_warehouse
from xwbench import xmlio
from xwbench.engine_pedersen import transform_warehouse
from xwbench.errors import DocumentError
from xwbench.generator import GeneratorConfig, generate_warehouse
from xwbench.harness import oracle_cube
from xwbench.model import (DimensionInstance, DimensionSchema, DwModel, FactRecord, Warehouse,
                           default_model)
from xwbench.workload import get_query, plan_query, run_query
from xwbench.xmlio import (
    document_sizes,
    format_amount,
    iter_facts,
    iter_instances,
    layout_files,
    read_metadata,
    write_dimension,
    write_metadata,
    write_warehouse,
)


class TestMetadata:
    def test_exact_dimension_and_measure_elements(self, model, tmp_path):
        write_metadata(model, str(tmp_path))
        text = (tmp_path / "dw-model.xml").read_text()
        assert ("<dimension idref='customer' path='d_customer.xml'>"
                "<nation><region/></nation></dimension>") in text
        assert "<type3><type2><type1/></type2></type3>" in text
        assert "<day><month><year/></month></day>" in text
        assert "<measure id='f_quantity'/>" in text
        assert "<measure id='f_totalamount'/>" in text

    def test_round_trip(self, model, tmp_path):
        write_metadata(model, str(tmp_path))
        assert read_metadata(str(tmp_path)) == model

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_every_model_written_reads_back_equal(self, tmp_path_factory, data):
        """Every model write_metadata accepts, read_metadata reads back equal."""
        value = st.one_of(
            st.text(st.characters(blacklist_categories=["Cc", "Cs"],
                                  blacklist_characters="<&'"), max_size=6),
            st.text(max_size=3))
        level = st.one_of(st.from_regex("[A-Za-z_][A-Za-z0-9_.-]{0,5}", fullmatch=True),
                          st.text(max_size=3))
        dim_ids = data.draw(st.lists(value, max_size=4, unique=True))
        measures = data.draw(st.permutations([*default_model().measures,
                                              *data.draw(st.lists(value, max_size=2))]))
        model = DwModel(
            data.draw(value), data.draw(value),
            tuple(DimensionSchema(dim_id, data.draw(value),
                                  tuple(data.draw(st.lists(level, min_size=1, max_size=4))))
                  for dim_id in dim_ids),
            tuple(measures))
        out = str(tmp_path_factory.mktemp("meta"))
        try:
            write_metadata(model, out)
        except DocumentError:
            return
        assert read_metadata(out) == model


class TestFactsDocument:
    def test_reference_sale_content(self, reference_dir):
        text = pathlib.Path(reference_dir, "f_sale.xml").read_text()
        assert "<f_quantity>100</f_quantity>" in text
        assert "<f_totalamount>2800.00</f_totalamount>" in text
        for dim in ("part", "customer", "supplier", "date"):
            assert f"<dimref dim='{dim}' idref='{dim}#1'/>" in text

    def test_amount_formatting(self):
        assert format_amount(280000) == "2800.00"
        assert format_amount(5) == "0.05"
        assert format_amount(9990) == "99.90"
        assert format_amount(1234567) == "12345.67"

    def test_amount_is_read_as_exact_cents(self, reference_dir, model, tmp_path):
        """2**53 + 1 cents, which no float holds, read exactly by the fact
        columns, the engines and the oracle, and written as the edit spells it."""
        path = pathlib.Path(reference_dir, "f_sale.xml")
        edit(path, "2800.00", "90071992547409.93")
        cents = 9007199254740993
        columns = xmlio.load_facts(reference_dir, model, ())
        assert list(columns.measures["f_totalamount"]) == [cents]
        query = get_query("Q21")
        assert run_query(query, reference_dir)[0].grand_totals == [100, cents]
        assert oracle_cube(reference_dir, query).grand_totals == [100, cents]
        fact = dataclasses.replace(reference_sale_warehouse().facts[0], f_totalamount=cents)
        xmlio.write_facts(model, [fact], str(tmp_path))
        assert (tmp_path / "f_sale.xml").read_bytes() == path.read_bytes()

    def test_empty_documents_have_empty_roots(self, tmp_path):
        model = default_model()
        empty = Warehouse(model, [], {s.id: [] for s in model.dimensions})
        write_warehouse(empty, str(tmp_path))
        assert "<sales/>" in (tmp_path / "f_sale.xml").read_text()
        assert "<dimension id='part'/>" in (tmp_path / "d_part.xml").read_text()
        assert_reads_back(str(tmp_path), empty)

    def test_fact_columns_hold_every_fact_in_order(self, complex_300, model):
        _, out_dir, warehouse = complex_300
        facts = xmlio.load_facts(out_dir, model, ("part", "date"))
        assert len(facts) == len(warehouse.facts) == 300
        assert set(facts.ordinals) == {"part", "date"}
        for dim_id, column in facts.ordinals.items():
            assert list(column) == [int(f.dim_refs[dim_id].partition("#")[2])
                                    for f in warehouse.facts]
        assert list(facts.measures["f_quantity"]) == [f.f_quantity for f in warehouse.facts]
        assert list(facts.measures["f_totalamount"]) == [f.f_totalamount
                                                         for f in warehouse.facts]


class TestRoundTrip:
    def test_grammar_blocks_are_what_the_writers_write(self, tmp_path, model):
        """The three xml blocks of docs/document-grammar.md, byte for byte:
        dw-model.xml of the default model, f_sale.xml of the reference
        warehouse, and d_supplier.xml of supplier#1 with a holey second row."""
        doc = pathlib.Path(__file__).parents[1].joinpath("docs", "document-grammar.md")
        blocks = re.findall(r"```xml\n(.*?)```", doc.read_text("utf-8"), re.S)
        supplier = make_instance("supplier", [{"nation": "FRANCE", "region": "EUROPE"},
                                              {"nation": "GERMANY"}])
        paths = [write_metadata(model, str(tmp_path)),
                 xmlio.write_facts(model, reference_sale_warehouse().facts, str(tmp_path)),
                 write_dimension(model.dimension("supplier"), [supplier], str(tmp_path))]
        assert [block.encode() for block in blocks] == [
            pathlib.Path(path).read_bytes() for path in paths]

    def test_generated_complex_warehouse(self, complex_300):
        _, out_dir, warehouse = complex_300
        assert_reads_back(out_dir, warehouse)

    def test_escaping_round_trips(self, tmp_path, model):
        schema = model.dimension("part")
        inst = make_instance("part", [{"type3": "A&B<C>'D", "type2": "OK"}])
        write_metadata(model, str(tmp_path))
        write_dimension(schema, [inst], str(tmp_path))

        assert list(iter_instances(str(tmp_path), schema)) == [inst]

    @pytest.mark.parametrize("chunk_bytes", [None, 97])
    def test_documents_spanning_many_chunks(self, tmp_path, monkeypatch, chunk_bytes):
        """Cell text split across feed boundaries and entity references is
        reassembled; 97-byte chunks split nearly every escaped value."""
        if chunk_bytes is not None:
            monkeypatch.setattr(xmlio, "_CHUNK_BYTES", chunk_bytes)
        warehouse = generate_warehouse(GeneratorConfig(
            2000, incomplete_percentage=50, nonstrict_percentage=50,
            nonstrict_number=4, seed=11))
        parts = warehouse.instances["part"]
        for i in range(0, len(parts), 7):
            rows = parts[i].rows
            parts[i] = dataclasses.replace(parts[i], rows=(
                {**rows[0], "type3": "A&B<C>'D"},) + rows[1:])
        out = str(tmp_path / "w")
        write_warehouse(warehouse, out)
        for name in ("d_part.xml", "f_sale.xml"):
            assert os.path.getsize(os.path.join(out, name)) > 3 * 64 * 1024
        assert "A&amp;B&lt;C&gt;&apos;D" in pathlib.Path(out, "d_part.xml").read_text()
        for schema in warehouse.model.dimensions:
            streamed = [list(inst.rows) for inst in iter_instances(out, schema)]
            parsed = ET.parse(os.path.join(out, schema.path)).getroot()
            assert streamed == [[{cell.tag: cell.text or "" for cell in row} for row in inst]
                                for inst in parsed]
        assert_reads_back(out, warehouse)


class TestWriters:
    """The writers refuse what the readers would not read back as written,
    naming the record, and write nothing else differently."""

    @pytest.mark.parametrize("fact_id, ref", [
        ("sale'1", "part#1"), ("sale\t1", "part#1"), ("sale#1", "part<1"),
        ("sale#1", "part#1&amp;"), ("sale#1", "part#1\n"), ("sale\x00", "part#1"),
    ])
    def test_sale_id_or_reference_that_is_not_plain_is_refused(self, tmp_path, model,
                                                               fact_id, ref):
        fact = FactRecord(fact_id, 1, 200, {**{d: f"{d}#1" for d in model.dimension_ids},
                                            "part": ref})
        with pytest.raises(DocumentError, match=re.escape(f"sale {fact_id!r}")):
            xmlio.write_facts(model, [fact], str(tmp_path))

    @pytest.mark.parametrize("quantity, cents", [(-1, 200), (1, -5), (2**63, 200),
                                                 (1, 2**63), (True, 200), (1, 2.0)])
    def test_measure_the_readers_reject_is_refused(self, tmp_path, model, quantity, cents):
        """A measure is an int from 0 to 2**63 - 1, the range a fact column
        holds: -1 and -5 cents would be written as '-1' and '-1.95'."""
        refs = {d: f"{d}#1" for d in model.dimension_ids}
        top = 2**63 - 1
        xmlio.write_facts(model, [FactRecord("sale#1", top, top, refs)], str(tmp_path))
        columns = xmlio.load_facts(str(tmp_path), model, ())
        assert [list(c) for c in columns.measures.values()] == [[top], [top]]
        with pytest.raises(DocumentError, match=re.escape("sale 'sale#1' has a measure")):
            xmlio.write_facts(model, [FactRecord("sale#1", quantity, cents, refs)],
                              str(tmp_path))

    @pytest.mark.parametrize("value", ["a\rb", "\x00", "x\ufffe", "\uffff", "\udcff", "\x1b"])
    def test_level_value_without_a_written_form_is_refused(self, tmp_path, model, value):
        instances = [make_instance("part", [{"type3": "A&B<C>'D\t\n"}]),
                     make_instance("part", [{"type3": "ok"}, {"type2": value}], 2)]
        with pytest.raises(DocumentError, match=re.escape(f"instance 'part#2': level value "
                                                          f"{value!r}")):
            write_dimension(model.dimension("part"), instances, str(tmp_path))

    def test_undeclared_level_is_refused(self, tmp_path, model):
        """A row holding a level the schema does not declare would be
        written without it, and read back so."""
        inst = DimensionInstance("part#1", ({"type3": "LARGE", "color": "red"},))
        with pytest.raises(DocumentError, match=re.escape(
                "d_part.xml: instance 'part#1': level 'color' is not declared")):
            write_dimension(model.dimension("part"), [inst], str(tmp_path))

    def test_instance_id_that_is_not_plain_is_refused(self, tmp_path, model):
        with pytest.raises(DocumentError, match=re.escape("instance \"part'1\"")):
            write_dimension(model.dimension("part"),
                            [DimensionInstance("part'1", ({},))], str(tmp_path))

    @pytest.mark.parametrize("edit", [
        lambda m: dataclasses.replace(m, fact_id="sa<le"),
        lambda m: dataclasses.replace(m, measures=(*m.measures, "f&q")),
        lambda m: dataclasses.replace(m, dimensions=(
            dataclasses.replace(m.dimensions[0], id="pa'rt"), *m.dimensions[1:])),
        lambda m: dataclasses.replace(m, dimensions=(
            dataclasses.replace(m.dimensions[0], path="d\tpart.xml"), *m.dimensions[1:])),
    ])
    def test_metadata_id_that_is_not_plain_is_refused(self, tmp_path, model, edit):
        with pytest.raises(DocumentError, match="is not a plain attribute value"):
            write_metadata(edit(model), str(tmp_path))

    @pytest.mark.parametrize("levels", [("type3", "a<b"), ("a b",), ("",), ()],
                             ids=["angle-bracket", "space", "empty-name", "no-level"])
    def test_metadata_level_without_a_written_form_is_refused(self, tmp_path, model, levels):
        part = dataclasses.replace(model.dimensions[0], levels=levels)
        message = f"dimension 'part' has levels {levels!r}, not one or more XML names"
        with pytest.raises(DocumentError, match=re.escape(f"dw-model.xml: {message}")):
            write_metadata(dataclasses.replace(model, dimensions=(part, *model.dimensions[1:])),
                           str(tmp_path))
        assert not (tmp_path / "dw-model.xml").exists()

    def test_failed_write_leaves_no_metadata(self, tmp_path):
        """write_warehouse removes an earlier dw-model.xml before its first
        document and writes its own last, so a write that fails partway
        leaves a directory that no reader accepts."""
        out = tmp_path / "wh"
        warehouse = reference_sale_warehouse()
        write_warehouse(warehouse, str(out))
        warehouse.instances["date"][0].rows[0]["day"] = "\x00"
        with pytest.raises(DocumentError, match="d_date.xml"):
            write_warehouse(warehouse, str(out))
        assert not (out / "dw-model.xml").exists()
        with pytest.raises(DocumentError, match="dw-model.xml"):
            read_metadata(str(out))

    def test_rewrite_removes_the_stamp(self, tmp_path):
        """A stamp vouches for what generate_dataset wrote; a rewrite through
        write_warehouse removes it, so it never vouches for other data."""
        out = tmp_path / "wh"
        out.mkdir()
        (out / xmlio.STAMP_FILE).write_text('{"facts": 200}', encoding="utf-8")
        write_warehouse(reference_sale_warehouse(), str(out))
        assert not (out / xmlio.STAMP_FILE).exists()


class TestStreaming:
    def test_record_without_an_end_is_not_buffered_whole(self, tmp_path, model, monkeypatch):
        """A record with no end within the limit is rejected, although in
        the written form, rather than read until it ends."""
        monkeypatch.setattr(xmlio, "_CHUNK_BYTES", 97)
        monkeypatch.setattr(xmlio, "_RECORD_LIMIT", 500)
        write_dimension(model.dimension("part"), [
            make_instance("part", [{"type3": "LARGE"}]),
            make_instance("part", [{"type3": "LARGE", "type2": "ANODIZED"}] * 20, 2)],
            str(tmp_path))
        with pytest.raises(DocumentError, match=re.escape(
                "d_part.xml: line 8: no record ends within 500 characters: "
                "\"  <instance id='part#2'>\"")):
            list(iter_instances(str(tmp_path), model.dimension("part")))

    def test_closing_a_reader_early_closes_its_document(self, reference_dir, model,
                                                        monkeypatch):
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            for reader in (iter_instances(reference_dir, model.dimension("part")),
                           iter_facts(reference_dir, model)):
                next(reader)
                reader.close()
            gc.collect()
        assert unraisable == []


class TestSharedValues:
    """Equal level values read from one dimension document are one object,
    so equal group-key components compare by identity."""

    def test_equal_level_values_are_one_object(self, complex_300, model):
        _, out_dir, _ = complex_300
        indexes = xmlio.load_dimensions(out_dir, model, dict.fromkeys(model.dimension_ids))
        for schema in model.dimensions:
            for level in schema.levels:
                vals = [row[level] for inst in indexes[schema.id] for row in inst.rows
                        if level in row]
                assert len(set(vals)) < len(vals), (schema.id, level)
                assert len({id(v) for v in vals}) == len(set(vals)), (schema.id, level)

    def test_d3_key_components_are_shared(self, grid_1k):
        _, in_dir = grid_1k["simple-1000"]
        keys = list(plan_query(get_query("D3"), in_dir).keys())
        for position in range(3):
            components = [key[position] for key in keys]
            assert len({id(c) for c in components}) <= len(set(components)), position


# Text that XML, the writers' escaping or the fast path's character class
# treat specially; drawn whole or as characters among any others.
_AWKWARD = ["&", "<", ">", "'", '"', "]]>", "\r", "\r\n", "\t", "\n", " ", "é", "€",
            "\U0001F600", "\uFFFD", "\uFFFE", "\x00", "&amp;", "A&B<C>'D"]


# The default model, and one whose every dimension has a single level.
_MODELS = [default_model(), dataclasses.replace(default_model(), dimensions=tuple(
    dataclasses.replace(schema, levels=schema.levels[:1])
    for schema in default_model().dimensions))]


def _warehouses(chars):
    """Small warehouses of either of _MODELS whose level values and sale ids
    are drawn from `chars`, with holes and multi-row instances."""
    text = st.one_of(st.sampled_from(_AWKWARD + [""]), st.text(chars, max_size=6))

    @st.composite
    def draw_warehouse(draw):
        model = draw(st.sampled_from(_MODELS))
        instances = {}
        for schema in model.dimensions:
            count = draw(st.integers(1, 3))
            instances[schema.id] = [DimensionInstance(f"{schema.id}#{n}", tuple(
                {level: draw(text) for level in schema.levels if draw(st.booleans())}
                for _ in range(draw(st.integers(1, 3))))) for n in range(1, count + 1)]
        facts = [FactRecord(draw(text), draw(st.integers(0, 10**6)),
                            draw(st.integers(0, 10**8)),
                            {dim_id: f"{dim_id}#{draw(st.integers(1, len(instances[dim_id])))}"
                             for dim_id in model.dimension_ids})
                 for _ in range(draw(st.integers(1, 3)))]
        return Warehouse(model, facts, instances)

    return draw_warehouse()


# Any character UTF-8 can write, so also ones XML forbids or rewrites.
_ANY_CHAR = st.characters(blacklist_categories=("Cs",))
# XML characters that XML reads as written ('\r' is read as '\n').
_XML_CHAR = st.one_of(st.sampled_from("\t\n"), st.characters(
    min_codepoint=0x20, blacklist_categories=("Cs",), blacklist_characters="\ufffe\uffff"))


class TestOneReader:
    """The readers accept exactly the byte form the writers write, one regex
    match per record, and reject anything else by its line."""

    @settings(max_examples=150, deadline=None)
    @given(warehouse=_warehouses(_ANY_CHAR), chunk=st.sampled_from([5, 97, 32 * 1024]))
    def test_what_is_accepted_reads_back_as_written(self, warehouse, chunk):
        """The writers refuse a warehouse with DocumentError, or every
        document reads back exactly as written, its equal level values one
        object: no character reads as another."""
        model = warehouse.model
        with tempfile.TemporaryDirectory() as out, \
                mock.patch.object(xmlio, "_CHUNK_BYTES", chunk):
            try:
                write_warehouse(warehouse, out)
            except DocumentError:
                return
            assert_reads_back(out, warehouse)
            for schema in model.dimensions:
                values = [v for inst in iter_instances(out, schema) for row in inst.rows
                          for v in row.values()]
                assert len({id(v) for v in values}) == len(set(values))

    @settings(max_examples=60, deadline=None)
    @given(warehouse=_warehouses(_XML_CHAR), chunk=st.sampled_from([5, 97, 32 * 1024]))
    def test_fast_path_alone_reads_awkward_text(self, warehouse, chunk):
        """Level values made of XML characters other than '\r' read back as
        written.  (The writers do not escape sale ids, so those stay plain.)"""
        clean = re.compile("[\r\x00\ufffe]").sub
        warehouse = Warehouse(
            warehouse.model,
            [dataclasses.replace(f, fact_id=f"sale#{n}")
             for n, f in enumerate(warehouse.facts, 1)],
            {dim_id: [dataclasses.replace(inst, rows=tuple(
                {level: clean("", v) for level, v in row.items()} for row in inst.rows))
                for inst in insts] for dim_id, insts in warehouse.instances.items()})
        with tempfile.TemporaryDirectory() as out, \
                mock.patch.object(xmlio, "_CHUNK_BYTES", chunk):
            write_warehouse(warehouse, out)
            assert_reads_back(out, warehouse)

    @settings(max_examples=100, deadline=None)
    @given(warehouse=_warehouses(_XML_CHAR), chunk=st.sampled_from([5, 97, 32 * 1024]))
    def test_projected_reads_are_full_rows_projected(self, warehouse, chunk):
        """A full read holds the rows as written, a dict each; a read keeping
        no level, each single level or every level holds them restricted to
        those levels, equal rows one dict, whether they are an instance's
        first row or a later one."""
        with tempfile.TemporaryDirectory() as out, \
                mock.patch.object(xmlio, "_CHUNK_BYTES", chunk):
            for schema in warehouse.model.dimensions:
                try:
                    write_dimension(schema, warehouse.instances[schema.id], out)
                except DocumentError:
                    continue
                full = list(iter_instances(out, schema))
                assert full == warehouse.instances[schema.id]
                rows = [row for inst in full for row in inst.rows]
                assert len({id(row) for row in rows}) == len(rows)
                for keep in ((), *((level,) for level in schema.levels), schema.levels):
                    read = list(iter_instances(out, schema, keep))
                    assert read == [DimensionInstance(inst.instance_id, tuple(
                        {level: v for level, v in row.items() if level in keep}
                        for row in inst.rows)) for inst in full]
                    shared = {}
                    for row in (row for inst in read for row in inst.rows):
                        assert shared.setdefault(tuple(row.items()), row) is row

    @pytest.mark.parametrize("document, old, new, back", [
        ("d_part.xml", "<instance id='part#12'>", '<instance id="part#12">', 0),
        ("d_part.xml", "  <instance id='part#12'>",
         "  <!-- a note -->\n  <instance id='part#12'>", 0),
        ("d_customer.xml", re.compile(r"<instance id='customer#12'>.*", re.S),
         lambda match: match[0].replace("\n", "\r\n"), 0),
        ("d_supplier.xml", "<instance id='supplier#12'>\n    <row>\n      <nation>",
         "<instance id='supplier#12'>\n    <row>\n      <nation>&#38;", 0),
        # Every line is one the writers write, out of order: the error names
        # the sale's first line, three above the first line edited.
        ("f_sale.xml", re.compile(r"(<sale id='sale#12'>.*?)(    <dimref dim='part'[^\n]*\n)"
                                  r"(    <dimref dim='customer'[^\n]*\n)", re.S), r"\1\3\2", 3),
        ("d_date.xml", "id='date#12'", "id='date#13'", 0),
        ("d_part.xml", re.compile(r"(<instance id='part#12'>.*?)</row>", re.S), r"\1", 0),
        ("d_part.xml", re.compile(r"(<instance id='part#12'>.*?)<type2>(.*?)</type2>", re.S),
         r"\1<color>\2</color>", 0),
        ("d_date.xml", re.compile(r"(<instance id='date#12'>.*?)-", re.S), "\\1\udcff", 0),
        ("f_sale.xml", re.compile(r"(<sale id='sale#12'>.*?)(<f_quantity>[0-9]+</f_quantity>)",
                                  re.S), r"\1\2\2", 0),
    ], ids=["double-quotes", "comment", "crlf", "character-reference", "reordered-dimrefs",
            "out-of-sequence", "unclosed-row", "unknown-element", "not-utf-8",
            "repeated-measure"])
    def test_edited_document_is_rejected_at_its_line(self, tmp_path, monkeypatch,
                                                     document, old, new, back):
        """The reader hands over the records before the edit, several
        97-byte chunks of them, then names the edited line."""
        monkeypatch.setattr(xmlio, "_CHUNK_BYTES", 97)
        out = str(tmp_path / "w")
        write_warehouse(generate_warehouse(GeneratorConfig(
            30, incomplete_percentage=50, nonstrict_percentage=50, nonstrict_number=3,
            seed=4)), out)
        text, edited = edit(os.path.join(out, document), old, new)
        line = next(n for n, (before, after) in enumerate(
            zip(text.split("\n"), edited.split("\n")), 1) if before != after) - back
        model = read_metadata(out)
        handed = []
        with pytest.raises(DocumentError, match=re.escape(f"{document}: line {line}: ")):
            for record in (iter_facts(out, model) if document == model.fact_path else
                           iter_instances(out, model.dimension(document[2:-4]))):
                handed.append(record)
        assert 5 <= len(handed) < 30

    @pytest.mark.parametrize("transformed", [False, True], ids=["generated", "transformed"])
    def test_fast_path_reads_everything_the_writers_write(self, complex_300, tmp_path,
                                                          transformed):
        """Loading a complex warehouse, or its transform, completes; so does
        transforming the warehouse, while its transform, which holds labels,
        is refused."""
        _, in_dir, warehouse = complex_300
        if transformed:
            transform_warehouse(in_dir, str(tmp_path / "pedersen"))
            in_dir = str(tmp_path / "pedersen")
        model = read_metadata(in_dir)
        indexes = xmlio.load_dimensions(in_dir, model, dict.fromkeys(model.dimension_ids))
        assert [len(indexes[d]) for d in model.dimension_ids] == [
            len(warehouse.instances[d]) for d in model.dimension_ids]
        assert len(xmlio.load_facts(in_dir, model, model.dimension_ids)) == 300
        if not transformed:
            transform_warehouse(in_dir, str(tmp_path / "again"))
        else:
            with pytest.raises(DocumentError, match="spelled like a label"):
                transform_warehouse(in_dir, str(tmp_path / "again"))


class TestSizes:
    def test_adding_facts_never_shrinks_documents(self, tmp_path):
        sizes = {}
        for n in (100, 200):
            out = tmp_path / f"w{n}"
            w = generate_warehouse(GeneratorConfig(n, seed=6, output_dir=str(out)))
            sizes[n] = document_sizes(str(out))
        for name in layout_files(default_model()):
            assert sizes[200][name] >= sizes[100][name], name

    def test_memory_high_water_is_sublinear(self, tmp_path):
        """Streaming peak stays near-flat while documents grow 10x.  At 1,000
        facts every document spans several chunks, so the base is a stream's
        peak, not one whole document's (seed 5: 359 KB and 365 KB streaming,
        1.5 MB and 13.9 MB reading each document whole)."""
        peaks = {}
        doc_bytes = {}
        for n in (1000, 10000):
            out = str(tmp_path / f"m{n}")
            w = generate_warehouse(GeneratorConfig(n, seed=5, output_dir=out))
            tracemalloc.start()
            try:
                instances = sum(1 for schema in w.model.dimensions
                                for _ in iter_instances(out, schema))
                facts = sum(len(chunk[0]) for chunk in iter_facts(out, w.model))
                _, peaks[n] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert (facts, instances) == (n, 4 * n)
            doc_bytes[n] = sum(document_sizes(out).values())
        assert min(os.path.getsize(os.path.join(tmp_path, "m1000", name))
                   for name in layout_files(w.model)[1:]) > 3 * xmlio._CHUNK_BYTES
        assert doc_bytes[10000] > 9 * doc_bytes[1000]
        assert peaks[10000] < 2 * peaks[1000], peaks

    def test_writer_memory_is_flat(self, tmp_path):
        """The writers stream each sale and instance as it is formatted: the
        peak of writing a warehouse stays near-flat while it grows 10x.  The
        warehouse is built before tracing starts.  The base is 1,000 facts,
        where the per-document escape tables hold most distinct level values
        already, so the ratio measures streaming, not the value domain (seed
        5: 52 KB and 87 KB streaming; joining each document whole before
        writing it fails the bound)."""
        peaks = {}
        for n in (1000, 10_000):
            warehouse = generate_warehouse(GeneratorConfig(n, 50, 50, 3, seed=5))
            tracemalloc.start()
            try:
                write_warehouse(warehouse, str(tmp_path / f"w{n}"))
                _, peaks[n] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peaks[10_000] < 2 * peaks[1000], peaks
