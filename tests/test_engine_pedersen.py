"""Static preprocessing: covering, fusing, whole-warehouse transformation."""

import filecmp
import hashlib
import os

import pytest

from conftest import COMPLEX_SUPPLIER, FOUR_ROW_SUPPLIER, make_instance
from xwbench.engine_pedersen import (
    extended_schema,
    fused_levels_of,
    make_covering,
    make_strict,
    resolve_column_pretransformed,
    transform_warehouse,
)
from xwbench.errors import ConfigurationError
from xwbench.generator import GeneratorConfig, generate_warehouse
from xwbench.model import HierarchyKind, classify_instance
from xwbench.xmlio import iter_instances, layout_files, read_metadata


class TestMakeCovering:
    def test_fills_removed_level_with_placeholder(self, model):
        inst = make_instance("part", [{"type2": "ANODIZED", "type1": "TIN"}])
        out = make_covering(inst, model.dimension("part"))
        assert out.rows[0].cells == {"type3": "Other", "type2": "ANODIZED",
                                     "type1": "TIN"}

    def test_complete_instance_unchanged(self, model):
        inst = make_instance("supplier", FOUR_ROW_SUPPLIER)
        assert make_covering(inst, model.dimension("supplier")) is inst

    def test_fully_anonymous_row(self, model):
        inst = make_instance("customer", [{}])
        out = make_covering(inst, model.dimension("customer"))
        assert out.rows[0].cells == {"nation": "Other", "region": "Other"}

    def test_covering_removes_all_incompleteness(self, model):
        warehouse = generate_warehouse(GeneratorConfig(
            300, incomplete_percentage=50, seed=19))
        for schema, inst in warehouse.iter_all_instances():
            covered = make_covering(inst, schema)
            assert classify_instance(covered, schema) in (
                HierarchyKind.SIMPLE, HierarchyKind.NONSTRICT)


class TestMakeStrict:
    def test_multi_nation_array_gets_fused_label(self, model):
        schema = model.dimension("supplier")
        inst = make_instance("supplier", FOUR_ROW_SUPPLIER)
        out = make_strict(inst, schema)
        assert len(out.rows) == 1
        assert out.rows[0].cells["nation"] == "FRANCE+GERMANY"
        assert out.rows[0].cells["nation_fused"] == "FRANCE+GERMANY"
        assert out.rows[0].cells["region"] == "EUROPE"
        assert fused_levels_of(out, schema) == {"nation"}

    def test_single_row_is_a_fixed_point(self, model):
        inst = make_instance("supplier", [{"nation": "FRANCE", "region": "EUROPE"}])
        out = make_strict(inst, model.dimension("supplier"))
        assert out is inst
        assert fused_levels_of(out, model.dimension("supplier")) == set()

    def test_requires_covering_input(self, model):
        inst = make_instance("supplier", COMPLEX_SUPPLIER)
        with pytest.raises(ValueError):
            make_strict(inst, model.dimension("supplier"))

    def test_covering_then_fusing_the_complex_array(self, model):
        schema = model.dimension("supplier")
        out = make_strict(make_covering(make_instance("supplier", COMPLEX_SUPPLIER),
                                        schema), schema)
        assert out.rows[0].cells["nation"] == "FRANCE+GERMANY+INDIA+Other"
        assert out.rows[0].cells["region"] == "ASIA+EUROPE+Other"

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
        _, src, _ = complex_300
        once = str(tmp_path / "once")
        twice = str(tmp_path / "twice")
        transform_warehouse(src, once)
        report = transform_warehouse(once, twice)
        assert report.instances_covered == 0
        assert report.instances_fused == 0
        model = read_metadata(once)
        for name in layout_files(model):
            assert filecmp.cmp(os.path.join(once, name), os.path.join(twice, name),
                               shallow=False), name

    def test_metadata_lists_inserted_fused_levels(self, complex_300, tmp_path):
        _, src, _ = complex_300
        out = str(tmp_path / "ped")
        report = transform_warehouse(src, out)
        model = read_metadata(out)
        assert "nation_fused" in model.dimension("supplier").levels
        assert "nation_fused" in report.fused_levels["supplier"]
        assert "date" not in report.fused_levels  # date is never non-strict

    def test_same_directory_rejected(self, complex_300):
        _, src, _ = complex_300
        with pytest.raises(ConfigurationError):
            transform_warehouse(src, src)


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


class TestPretransformedResolution:
    def test_plain_cell_read(self):
        inst = make_instance("supplier", [{"nation": "FRANCE+GERMANY",
                                           "nation_fused": "FRANCE+GERMANY",
                                           "region": "EUROPE"}])
        assert resolve_column_pretransformed([inst], [1], "nation") == ["FRANCE+GERMANY"]
        assert resolve_column_pretransformed([inst], [1], None) == ["supplier#1"]

    def test_untransformed_multi_row_is_a_mismatch(self):
        inst = make_instance("supplier", FOUR_ROW_SUPPLIER)
        with pytest.raises(ConfigurationError):
            resolve_column_pretransformed([inst], [1], "nation")

    def test_untransformed_hole_is_a_mismatch(self):
        inst = make_instance("part", [{"type2": "ANODIZED", "type1": "TIN"}])
        with pytest.raises(ConfigurationError):
            resolve_column_pretransformed([inst], [1], "type3")
