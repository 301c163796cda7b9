"""Static preprocessing: covering, fusing, whole-warehouse transformation."""

import filecmp
import hashlib
import os
import re
import tempfile
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (COMPLEX_SUPPLIER, FOUR_ROW_SUPPLIER, make_instance,
                      reference_sale_warehouse)
from xwbench import cli, engine_pedersen
from xwbench.engine_pedersen import (
    FUSED_SUFFIX,
    extended_schema,
    make_covering,
    make_strict,
    transform_warehouse,
)
from xwbench.errors import ConfigurationError, DocumentError
from xwbench.generator import GeneratorConfig, generate_warehouse
from xwbench.harness import REPORT_COLUMNS, DatasetSpec, run_cell
from xwbench.model import HierarchyKind, classify_instance
from xwbench.workload import Query, get_query, plan_query, run_query
from xwbench.xmlio import iter_instances, layout_files, read_metadata, write_warehouse


class TestMakeCovering:
    def test_fills_removed_level_with_placeholder(self, model):
        inst = make_instance("part", [{"type2": "ANODIZED", "type1": "TIN"}])
        out = make_covering(inst, model.dimension("part"))
        assert out.rows[0] == {"type3": "Other", "type2": "ANODIZED", "type1": "TIN"}

    def test_complete_instance_unchanged(self, model):
        inst = make_instance("supplier", FOUR_ROW_SUPPLIER)
        assert make_covering(inst, model.dimension("supplier")) is inst

    def test_fully_anonymous_row(self, model):
        inst = make_instance("customer", [{}])
        out = make_covering(inst, model.dimension("customer"))
        assert out.rows[0] == {"nation": "Other", "region": "Other"}

    def test_covering_removes_all_incompleteness(self, model):
        warehouse = generate_warehouse(GeneratorConfig(
            300, incomplete_percentage=50, seed=19))
        for schema, inst in warehouse.iter_all_instances():
            covered = make_covering(inst, schema)
            assert classify_instance(covered, schema) in (
                HierarchyKind.SIMPLE, HierarchyKind.NONSTRICT)


class TestMakeStrict:
    def test_multi_nation_array_gets_fused_label(self, model, tmp_path):
        """make_strict sets each level's own cell only; the transform writes
        the `nation_fused` cell, a copy of the fused label."""
        schema = model.dimension("supplier")
        inst = make_instance("supplier", FOUR_ROW_SUPPLIER)
        out = make_strict(inst, schema)
        assert out.rows == ({"nation": "FRANCE+GERMANY", "region": "EUROPE"},)
        raw, ped = str(tmp_path / "raw"), str(tmp_path / "ped")
        warehouse = reference_sale_warehouse()
        warehouse.instances["supplier"] = [inst]
        write_warehouse(warehouse, raw)
        transform_warehouse(raw, ped)
        (written,) = iter_instances(ped, read_metadata(ped).dimension("supplier"))
        assert written.rows == ({"nation": "FRANCE+GERMANY",
                                 "nation_fused": "FRANCE+GERMANY", "region": "EUROPE"},)

    def test_single_row_is_a_fixed_point(self, model):
        inst = make_instance("supplier", [{"nation": "FRANCE", "region": "EUROPE"}])
        out = make_strict(inst, model.dimension("supplier"))
        assert out is inst

    def test_requires_covering_input(self, model):
        inst = make_instance("supplier", COMPLEX_SUPPLIER)
        with pytest.raises(ValueError):
            make_strict(inst, model.dimension("supplier"))

    def test_covering_then_fusing_the_complex_array(self, model):
        schema = model.dimension("supplier")
        out = make_strict(make_covering(make_instance("supplier", COMPLEX_SUPPLIER),
                                        schema), schema)
        assert out.rows[0]["nation"] == "FRANCE+GERMANY+INDIA+Other"
        assert out.rows[0]["region"] == "ASIA+EUROPE+Other"

    def test_extended_schema_insertion_points(self, model):
        ext = extended_schema(model.dimension("supplier"), {"nation"})
        assert ext.levels == ("nation", "nation_fused", "region")
        ext = extended_schema(model.dimension("part"), {"type3", "type1"})
        assert ext.levels == ("type3", "type3_fused", "type2", "type1", "type1_fused")


class TestTransformWarehouse:
    def test_simple_warehouse_is_a_byte_identical_noop(self, tmp_path):
        src = tmp_path / "simple"
        w = generate_warehouse(GeneratorConfig(100, seed=23, output_dir=str(src)))
        report = transform_warehouse(str(src), str(tmp_path / "out"))
        assert report.instances_covered == 0
        assert report.instances_fused == 0
        assert report.overhead_ms > 0
        for name in layout_files(w.model):
            assert filecmp.cmp(str(src / name), str(tmp_path / "out" / name),
                               shallow=False), name

    def test_counts_cover_the_selection_log(self, complex_300, tmp_path):
        _, src, warehouse = complex_300
        report = transform_warehouse(src, str(tmp_path / "ped"))
        selected = (warehouse.generation.nonstrict_ids
                    | warehouse.generation.incomplete_ids)
        assert report.instances_covered + report.instances_fused >= len(selected)
        assert report.instances_covered == len(warehouse.generation.incomplete_ids)

    def test_everything_classifies_simple_over_extended_schema(self, complex_300,
                                                               tmp_path):
        _, src, _ = complex_300
        out = str(tmp_path / "ped")
        transform_warehouse(src, out)
        model = read_metadata(out)
        for schema in model.dimensions:
            for inst in iter_instances(out, schema):
                assert classify_instance(inst, schema) is HierarchyKind.SIMPLE

    def test_facts_document_untouched(self, complex_300, tmp_path):
        _, src, _ = complex_300
        out = str(tmp_path / "ped")
        transform_warehouse(src, out)
        assert filecmp.cmp(os.path.join(src, "f_sale.xml"),
                           os.path.join(out, "f_sale.xml"), shallow=False)

    def test_idempotence(self, complex_300, tmp_path):
        """A transform's output that holds no label transforms to the same
        bytes; one that holds a placeholder or a fused value is refused."""
        simple = str(tmp_path / "simple")
        generate_warehouse(GeneratorConfig(300, seed=7, output_dir=simple))
        once = str(tmp_path / "once")
        twice = str(tmp_path / "twice")
        transform_warehouse(simple, once)
        report = transform_warehouse(once, twice)
        assert report.instances_covered == 0
        assert report.instances_fused == 0
        model = read_metadata(once)
        for name in layout_files(model):
            assert filecmp.cmp(os.path.join(once, name), os.path.join(twice, name),
                               shallow=False), name
        _, src, _ = complex_300
        transformed = str(tmp_path / "transformed")
        transform_warehouse(src, transformed)
        with pytest.raises(DocumentError, match="spelled like a label"):
            transform_warehouse(transformed, str(tmp_path / "again"))

    def test_metadata_lists_inserted_fused_levels(self, complex_300, tmp_path):
        _, src, _ = complex_300
        out = str(tmp_path / "ped")
        report = transform_warehouse(src, out)
        model = read_metadata(out)
        assert "nation_fused" in model.dimension("supplier").levels
        assert "nation_fused" in report.fused_levels["supplier"]
        assert "date" not in report.fused_levels  # date is never non-strict

    def test_refused_transform_leaves_no_readable_mix(self, tmp_path, capsys):
        """A transform refused at d_date.xml, into the directory of an
        earlier transform, leaves neither that transform's metadata nor the
        documents it wrote itself, so no reader accepts the directory."""
        a, b, out = (str(tmp_path / name) for name in ("a", "b", "out"))
        generate_warehouse(GeneratorConfig(50, seed=1, output_dir=a))
        generate_warehouse(GeneratorConfig(50, seed=2, output_dir=b))
        transform_warehouse(a, out)
        date_path = os.path.join(b, "d_date.xml")
        with open(date_path, encoding="utf-8") as fh:
            text = fh.read()
        year = re.search("<year>[^<]*</year>", text).group()
        with open(date_path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(year, "<year>Other</year>"))
        with pytest.raises(DocumentError, match="d_date.xml"):
            transform_warehouse(b, out)
        assert sorted(os.listdir(out)) == ["d_date.xml", "f_sale.xml"]
        with pytest.raises(DocumentError, match="dw-model.xml: missing document"):
            read_metadata(out)
        assert cli.main(["run", "--in", out, "--engine", "pedersen", "--query", "D4"]) == 2
        assert "dw-model.xml" in capsys.readouterr().err

    def test_same_directory_rejected(self, complex_300):
        _, src, _ = complex_300
        with pytest.raises(ConfigurationError):
            transform_warehouse(src, src)

    def test_symlink_to_the_input_is_rejected(self, tmp_path):
        """An output that is a symlink to the input is the same directory:
        refused before anything is written or removed, so the input's six
        documents are left as they were."""
        a, b = tmp_path / "a", tmp_path / "b"
        generate_warehouse(GeneratorConfig(50, incomplete_percentage=50, seed=1,
                                           output_dir=str(a)))
        before = {name: (a / name).read_bytes() for name in os.listdir(a)}
        b.symlink_to(a, target_is_directory=True)
        with pytest.raises(ConfigurationError):
            transform_warehouse(str(a), str(b))
        assert {name: (a / name).read_bytes() for name in os.listdir(a)} == before
        assert len(before) == 6


class TestTransformShortcuts:
    """The transform writes complete single-row instances as read and fills
    singleton fusions in place; neither may change what it writes."""

    @settings(max_examples=40, deadline=None)
    @given(facts=st.integers(min_value=0, max_value=60),
           incomplete=st.sampled_from([0, 5, 50, 100]),
           nonstrict=st.sampled_from([0, 5, 50, 100]),
           k=st.integers(min_value=2, max_value=4),
           seed=st.integers(min_value=0, max_value=2**64 - 1))
    def test_every_instance_is_its_helpers_result(self, facts, incomplete, nonstrict,
                                                  k, seed):
        """Each written instance is make_strict(make_covering(inst)) plus a
        `_fused` cell per fused level of its dimension, a copy of the level's
        cell, and the report counts what those helpers did.  A level is
        fused where an instance's covering rows hold several values."""
        with tempfile.TemporaryDirectory() as tmp:
            raw, out = os.path.join(tmp, "raw"), os.path.join(tmp, "out")
            generate_warehouse(GeneratorConfig(
                facts, incomplete_percentage=incomplete, nonstrict_percentage=nonstrict,
                nonstrict_number=k, seed=seed, output_dir=raw))
            report = transform_warehouse(raw, out)
            out_model = read_metadata(out)
            covered = fused = 0
            for schema in read_metadata(raw).dimensions:
                written = list(iter_instances(out, out_model.dimension(schema.id)))
                expected = []
                dim_fused: set[str] = set()
                for inst in iter_instances(raw, schema):
                    covering = make_covering(inst, schema)
                    strict = make_strict(covering, schema)
                    covered += covering is not inst
                    inst_fused = {level for level in schema.levels
                                  if len({row[level] for row in covering.rows}) > 1}
                    fused += bool(inst_fused)
                    dim_fused |= inst_fused
                    expected.append(strict)
                for inst in expected:
                    cells = inst.rows[0]
                    for level in dim_fused:
                        cells[level + FUSED_SUFFIX] = cells[level]
                assert written == expected, schema.id
                assert report.fused_levels.get(schema.id, ()) == tuple(
                    level for level in extended_schema(schema, dim_fused).levels
                    if level.endswith(FUSED_SUFFIX)), schema.id
            assert (report.instances_covered, report.instances_fused) == (covered, fused)

    @staticmethod
    def _count_helper_calls(monkeypatch) -> Counter:
        calls: Counter = Counter()
        for name in ("make_covering", "make_strict"):
            def counted(*args, _real=getattr(engine_pedersen, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(engine_pedersen, name, counted)
        return calls

    def test_simple_warehouse_calls_no_helper(self, tmp_path, monkeypatch):
        """Every instance of a simple warehouse is one complete row, so none
        is covered or fused (a per-instance pass made 400 calls of each)."""
        src = tmp_path / "simple"
        generate_warehouse(GeneratorConfig(100, seed=23, output_dir=str(src)))
        calls = self._count_helper_calls(monkeypatch)
        transform_warehouse(str(src), str(tmp_path / "out"))
        assert calls == Counter()

    def test_only_instances_needing_work_reach_the_helpers(self, complex_300, tmp_path,
                                                           monkeypatch):
        _, src, _ = complex_300
        model = read_metadata(src)
        needing = sum(1 for schema in model.dimensions for inst in iter_instances(src, schema)
                      if len(inst.rows) > 1 or inst.has_absent_cell(schema))
        calls = self._count_helper_calls(monkeypatch)
        transform_warehouse(src, str(tmp_path / "ped"))
        assert needing > 0
        assert calls == Counter(make_covering=needing, make_strict=needing)


# sha256 of every document generated for GeneratorConfig(200, 50, 50, 3,
# seed=7) and of its transform.  The determinism tests compare two runs of
# the same code; these digests tie generator and transform to fixed bytes.
GOLDEN_GENERATED = {
    "dw-model.xml": "32df54b4800643ed8ef4c0f757e701445526bc71901eff2867eef8edd3936cfd",
    "f_sale.xml": "f9c7d4c60f01180cf0618e33c9c7d96913cb12c10bf5d68d8ed143d46fe0cd81",
    "d_part.xml": "07f08342fc1342537f3e8254602fb790def847e2857d507d80a9022d659a9ca6",
    "d_customer.xml": "8b92edb2e886939b5f4525eaa86d131b7b62795f4ac56384a7ea0726173b2750",
    "d_supplier.xml": "07564540eafb1e0bae5fbbd6aa9f94a225ffc36fbae1ede91eb937966e8fcc73",
    "d_date.xml": "628c44331a9af777c7b96df289363b88edca573ea3c3b1c0838596e1f2de898e",
}
GOLDEN_TRANSFORMED = {
    "dw-model.xml": "1a1cd4b405ccd6fd53dbde80ee1c530c77bee9be6ad293493b769ce4572b9f6f",
    "f_sale.xml": "f9c7d4c60f01180cf0618e33c9c7d96913cb12c10bf5d68d8ed143d46fe0cd81",
    "d_part.xml": "48cfe085c3400c1711ee6242e1d761fd5ff6d78a19aabf875d0a4370d8fce3f3",
    "d_customer.xml": "909852b03d6388f60f2163bbdcdf3393d5a6a5a9f000f40e31935cd08a44d4af",
    "d_supplier.xml": "52d5439e81159f52a68883c0795bf7567d05f4c01d94491099adc4eb50590f6a",
    "d_date.xml": "cf3e5393bbddc38db2db6db7efd1df1b7d429877a45aacf4f7536c2fc25dd0d6",
}


def _digests(directory):
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for name in os.listdir(directory)}


def test_generated_and_transformed_documents_match_golden_bytes(tmp_path):
    gen, out = tmp_path / "gen", tmp_path / "out"
    generate_warehouse(GeneratorConfig(200, 50, 50, 3, seed=7, output_dir=str(gen)))
    report = transform_warehouse(str(gen), str(out))
    assert report.instances_fused > 0 and report.instances_covered > 0
    assert _digests(gen) == GOLDEN_GENERATED
    assert _digests(out) == GOLDEN_TRANSFORMED


class TestPlanOverTransformedData:
    """Under pedersen the plan checks once that every instance of a dimension
    grouped at a level is one row holding that level, and then groups facts
    through the same resolver as qbs."""

    SUPPLIER_NATION = Query("T", "SUM", ("f_quantity",),
                            (("supplier", "nation"), ("part", None)))
    PART_TYPE3 = Query("T", "SUM", ("f_quantity",), (("part", "type3"),))

    @staticmethod
    def _written(tmp_path, name, **rows):
        """The reference sale's warehouse with the given instance rows,
        written under `tmp_path / name`."""
        warehouse = reference_sale_warehouse()
        for dim_id, dim_rows in rows.items():
            warehouse.instances[dim_id][0] = make_instance(dim_id, dim_rows)
        out = str(tmp_path / name)
        write_warehouse(warehouse, out)
        return out

    def test_transform_output_gives_fused_label_and_instance_id(self, tmp_path):
        raw = self._written(tmp_path, "raw", supplier=FOUR_ROW_SUPPLIER)
        out = str(tmp_path / "out")
        transform_warehouse(raw, out)
        plan = plan_query(self.SUPPLIER_NATION, out, "pedersen")
        assert list(plan.keys()) == [("FRANCE+GERMANY", "part#1")]

    @pytest.mark.parametrize("rows, query, instance", [
        ({"supplier": FOUR_ROW_SUPPLIER}, SUPPLIER_NATION, "supplier#1"),
        ({"part": [{"type2": "ANODIZED", "type1": "TIN"}]}, PART_TYPE3, "part#1"),
    ], ids=["multi-row", "hole"])
    def test_untransformed_instance_is_refused(self, tmp_path, rows, query, instance):
        """Through plan_query, and in run_cell's row, naming the instance."""
        raw = self._written(tmp_path, "raw", **rows)
        with pytest.raises(ConfigurationError, match=f"'{instance}'.*transform_warehouse"):
            plan_query(query, raw, "pedersen")
        report = run_cell(DatasetSpec("raw", 1), raw, "pedersen", query, "hash",
                          repeats=1, warmup=0)
        assert f"'{instance}'" in report.error
        assert report.error.endswith("this warehouse is not the output of transform_warehouse")
        assert report.row()[REPORT_COLUMNS.index("chk_grand")] == "ERR"

    def test_unreferenced_untransformed_instance_is_refused(self, tmp_path):
        """No sale references supplier#2, but the warehouse holding it is
        still not a transform's output."""
        warehouse = reference_sale_warehouse()
        warehouse.instances["supplier"].append(make_instance("supplier", FOUR_ROW_SUPPLIER, 2))
        raw = str(tmp_path / "raw")
        write_warehouse(warehouse, raw)
        with pytest.raises(ConfigurationError, match="'supplier#2'"):
            plan_query(self.SUPPLIER_NATION, raw, "pedersen")

    def test_instance_grouping_over_raw_data_is_accepted(self, tmp_path):
        """Q21 reads no level, so raw data is not refused under pedersen."""
        raw = self._written(tmp_path, "raw", supplier=FOUR_ROW_SUPPLIER)
        cube, _ = run_query(get_query("Q21"), raw, engine="pedersen")
        assert list(cube.entries) == [("part#1", "customer#1", "supplier#1", "date#1")]
