"""Document layout: byte form, round trips, streaming, strict validation."""

import dataclasses
import gc
import os
import pathlib
import re
import sys
import tracemalloc
import warnings

import pytest

from conftest import make_instance
from xwbench import xmlio
from xwbench.errors import DocumentError, ReferentialError
from xwbench.generator import GeneratorConfig, generate_warehouse
from xwbench.harness import _dom_rows
from xwbench.model import Warehouse, default_model
from xwbench.workload import get_query, plan_query, run_query
from xwbench.xmlio import (
    document_sizes,
    format_amount,
    iter_facts,
    iter_instances,
    layout_files,
    read_metadata,
    read_warehouse,
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

    def test_malformed_metadata_reports_line(self, tmp_path):
        (tmp_path / "dw-model.xml").write_text("<dw-model>\n  <fact\n")
        with pytest.raises(DocumentError, match="line"):
            read_metadata(str(tmp_path))

    def test_missing_metadata_is_document_error(self, tmp_path):
        with pytest.raises(DocumentError, match="missing document"):
            read_metadata(str(tmp_path / "nope"))

    def test_unreadable_metadata_is_document_error(self, tmp_path):
        (tmp_path / "dw-model.xml").mkdir()
        with pytest.raises(DocumentError, match="dw-model.xml: cannot read: Is a directory"):
            read_metadata(str(tmp_path))


class TestFactsDocument:
    def test_reference_sale_content(self, reference_dir):
        text = pathlib.Path(reference_dir, "f_sale.xml").read_text()
        assert "<f_quantity>100</f_quantity>" in text
        assert "<f_totalamount>2800.00</f_totalamount>" in text
        for dim in ("part", "customer", "supplier", "date"):
            assert f"<dimref dim='{dim}' idref='{dim}#1'/>" in text

    def test_amount_formatting(self):
        assert format_amount(2800.0) == "2800.00"
        assert format_amount(0.05) == "0.05"
        assert format_amount(99.9) == "99.90"
        assert format_amount(12345.67) == "12345.67"

    def test_empty_documents_have_empty_roots(self, tmp_path):
        model = default_model()
        empty = Warehouse(model, [], {s.id: [] for s in model.dimensions})
        write_warehouse(empty, str(tmp_path))
        assert "<sales/>" in (tmp_path / "f_sale.xml").read_text()
        assert "<dimension id='part'/>" in (tmp_path / "d_part.xml").read_text()
        assert read_warehouse(str(tmp_path)) == empty

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
    def test_generated_complex_warehouse(self, complex_300):
        _, out_dir, warehouse = complex_300
        back = read_warehouse(out_dir)
        assert back.model == warehouse.model
        assert back.facts == warehouse.facts
        assert back.instances == warehouse.instances

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
            assert streamed == _dom_rows(os.path.join(out, schema.path))
        assert read_warehouse(out) == warehouse


class TestStreaming:
    def test_unknown_element_is_named(self, reference_dir):
        path = pathlib.Path(reference_dir, "d_part.xml")
        path.write_text(path.read_text().replace("<type2>ANODIZED</type2>",
                                                 "<color>RED</color>"))
        with pytest.raises(DocumentError, match="color"):
            read_warehouse(reference_dir)

    def test_malformed_document_reports_line(self, reference_dir, model):
        path = pathlib.Path(reference_dir, "f_sale.xml")
        path.write_text(path.read_text().replace("</sales>", ""))
        with pytest.raises(DocumentError, match="line"):
            xmlio.load_facts(reference_dir, model, ())

    def test_dangling_dimref_is_referential_error(self, reference_dir):
        path = pathlib.Path(reference_dir, "f_sale.xml")
        path.write_text(path.read_text().replace("idref='part#1'", "idref='part#99'"))
        with pytest.raises(ReferentialError, match="part#99"):
            run_query(get_query("D2"), reference_dir)

    @pytest.mark.parametrize("ref", ["part#01", "part#+1", "part#1_0", "part# 1",
                                     "part#١", "part#", "part#0"])
    def test_malformed_dimref_is_referential_error(self, reference_dir, ref):
        """Only `part#<n>` in ASCII digits without a leading zero joins; every
        reader rejects what int() alone would accept."""
        path = pathlib.Path(reference_dir, "f_sale.xml")
        path.write_text(path.read_text().replace("idref='part#1'", f"idref='{ref}'"))
        with pytest.raises(ReferentialError, match=re.escape(repr(ref))):
            run_query(get_query("Q21"), reference_dir)

    def test_out_of_sequence_instance_id_rejected(self, reference_dir):
        path = pathlib.Path(reference_dir, "d_part.xml")
        path.write_text(path.read_text().replace("id='part#1'", "id='part#7'"))
        with pytest.raises(DocumentError, match="part#7"):
            read_warehouse(reference_dir)

    @pytest.mark.parametrize("document, old, new, message", [
        ("d_part.xml", "<dimension id='part'>", "<dimension id='parts'>",
         "dimension id 'parts' does not match 'part'"),
        ("d_supplier.xml", "dimension", "dim", "unknown element 'dim'"),
        ("d_customer.xml", "<nation>UNITED STATES</nation>",
         "<nation>UNITED<b/>STATES</nation>", "unknown element 'b'"),
        ("d_date.xml", re.compile(r"<row>.*</row>", re.S), "",
         "instance 'date#1' has no rows"),
        ("f_sale.xml", "dim='supplier'", "dim='shop'",
         "dimref to unknown dimension 'shop'"),
        ("f_sale.xml", "<dimref dim='date' idref='date#1'/>", "",
         "sale 'sale#1' must reference all dimensions"),
        ("f_sale.xml", "<f_quantity>100</f_quantity>", "<f_quantity>many</f_quantity>",
         "sale 'sale#1' has bad measures"),
        ("f_sale.xml", "<f_totalamount>2800.00</f_totalamount>", "",
         "sale 'sale#1' has bad measures"),
        ("f_sale.xml", "<f_quantity>100</f_quantity>",
         "<f_quantity><n>100</n></f_quantity>", "unknown element 'n'"),
    ])
    def test_invalid_document_is_rejected_by_message(self, reference_dir, document,
                                                     old, new, message):
        path = pathlib.Path(reference_dir, document)
        text = path.read_text()
        edited = old.sub(new, text) if isinstance(old, re.Pattern) else text.replace(old, new)
        assert edited != text
        path.write_text(edited)
        with pytest.raises(DocumentError, match=re.escape(f"{document}: {message}")):
            read_warehouse(reference_dir)

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
        indexes = xmlio.load_dimensions(out_dir, model, model.dimension_ids)
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


class TestSizes:
    def test_adding_facts_never_shrinks_documents(self, tmp_path):
        sizes = {}
        for n in (100, 200):
            out = tmp_path / f"w{n}"
            w = generate_warehouse(GeneratorConfig(n, seed=6, output_dir=str(out)))
            sizes[n] = document_sizes(str(out), w.model)
        for name in layout_files(default_model()):
            assert sizes[200][name] >= sizes[100][name], name

    def test_memory_high_water_is_sublinear(self, tmp_path):
        """Streaming peak stays near-flat while documents grow 100x."""
        peaks = {}
        doc_bytes = {}
        for n in (100, 1000, 10000):
            out = str(tmp_path / f"m{n}")
            w = generate_warehouse(GeneratorConfig(n, seed=5, output_dir=out))
            tracemalloc.start()
            try:
                instances = sum(1 for schema in w.model.dimensions
                                for _ in iter_instances(out, schema))
                facts = sum(1 for _ in iter_facts(out, w.model))
                _, peaks[n] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert (facts, instances) == (n, 4 * n)
            doc_bytes[n] = sum(document_sizes(out, w.model).values())
        assert doc_bytes[10000] > 50 * doc_bytes[100]
        assert peaks[1000] < 3 * peaks[100]
        assert peaks[10000] < 3 * peaks[100]

    def test_writer_memory_is_flat(self, tmp_path):
        """The writers stream each sale and instance as it is formatted: the
        peak of writing a warehouse stays near-flat while it grows 100x.  The
        warehouse is built before tracing starts."""
        peaks = {}
        for n in (100, 10_000):
            warehouse = generate_warehouse(GeneratorConfig(n, 50, 50, 3, seed=5))
            tracemalloc.start()
            try:
                write_warehouse(warehouse, str(tmp_path / f"w{n}"))
                _, peaks[n] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peaks[10_000] < 3 * peaks[100], peaks
