"""Correctness checker, brute-force oracle, negative control, campaigns."""

import copy
import csv
import dataclasses
import json
import os
from collections import Counter

import pytest

from conftest import single_sale_warehouse
from xwbench import xmlio
from xwbench.engine_qbs import OTHER
from xwbench.errors import OracleScopeError, ReferentialError
from xwbench.generator import GeneratorConfig, generate_warehouse
from xwbench.harness import (
    DatasetSpec,
    check_correctness,
    cubes_match,
    double_counting_cube,
    infer_regime,
    normalize_cube,
    oracle_cube,
    qbs_view_of_pedersen,
    run_campaign,
    run_cell,
    standard_matrix,
    write_report,
    REPORT_COLUMNS,
)
from xwbench.workload import ResultCube, get_query, run_query, standard_workload
from xwbench.xmlio import write_warehouse


class TestCheckCorrectness:
    def test_correct_cube_passes_every_check(self, complex_300):
        _, out_dir, _ = complex_300
        for query in standard_workload():
            cube, _ = run_query(query, out_dir)
            report = check_correctness(cube, out_dir, query)
            assert report.passed, (query.id, report.notes)

    def test_pedersen_cubes_pass_every_check(self, complex_300, tmp_path):
        from xwbench.engine_pedersen import transform_warehouse

        _, src, _ = complex_300
        out = str(tmp_path / "ped")
        transform_warehouse(src, out)
        for query in standard_workload():
            cube, _ = run_query(query, out, engine="pedersen")
            report = check_correctness(cube, out, query, engine="pedersen")
            assert report.passed, (query.id, report.notes)

    def test_perturbed_group_sum_fails_grand_total(self, complex_300):
        _, out_dir, _ = complex_300
        query = get_query("D2")
        cube, _ = run_query(query, out_dir)
        norm = copy.deepcopy(cube.normalize())
        key = next(iter(norm["entries"]))
        norm["entries"][key]["values"]["f_quantity"] += 1
        report = check_correctness(norm, out_dir, query)
        assert not report.grand_ok
        assert report.dup_ok

    def test_double_counting_engine_fails_on_nonstrict_data(self, grid_1k):
        """The deliberately broken engine is caught on every non-strict set."""
        for dataset_id in ("nonstrict5-1000", "nonstrict50-1000",
                           "complex5-1000", "complex50-1000"):
            _, out_dir = grid_1k[dataset_id]
            query = get_query("D4")
            naive = double_counting_cube(out_dir, query)
            report = check_correctness(naive, out_dir, query)
            assert not report.grand_ok, dataset_id

    def test_double_counting_engine_is_clean_on_simple_data(self, grid_1k):
        _, out_dir = grid_1k["simple-1000"]
        query = get_query("D4")
        naive = double_counting_cube(out_dir, query)
        assert check_correctness(naive, out_dir, query).passed


class TestOracle:
    def test_single_fact_cube(self, reference_dir):
        cube = oracle_cube(reference_dir, get_query("Q21"))
        assert cube["fact_count"] == 1
        ((key, entry),) = cube["entries"].items()
        assert key == ("part#1", "customer#1", "supplier#1", "date#1")
        assert entry["values"] == {"f_quantity": 100, "f_totalamount": 2800.0}

    def test_multi_nation_supplier_forms_one_fused_group(self, tmp_path):
        """A two-nation supplier makes one fused group, never two atomics."""
        warehouse = single_sale_warehouse(
            part_rows=[{"type3": "LARGE", "type2": "ANODIZED", "type1": "TIN"}],
            customer_rows=[{"nation": "UNITED STATES", "region": "AMERICA"}],
            supplier_rows=[
                {"nation": "FRANCE", "region": "EUROPE"},
                {"nation": "GERMANY", "region": "EUROPE"},
                {"nation": "FRANCE", "region": "EUROPE"},
                {"nation": "GERMANY", "region": "EUROPE"},
            ],
            date_rows=[{"day": "1998-06-25", "month": "1998-06", "year": "1998"}],
        )
        out = tmp_path / "fused"
        write_warehouse(warehouse, str(out))
        query = get_query("Q22")  # groups supplier at nation
        cube = oracle_cube(str(out), query)
        assert len(cube["entries"]) == 1
        ((key, entry),) = cube["entries"].items()
        assert key[2] == frozenset({"FRANCE", "GERMANY"})
        assert entry["support"] == 1

    def test_matches_run_query_on_a_complex_warehouse(self, complex_300):
        _, out_dir, _ = complex_300
        for query in standard_workload():
            cube, _ = run_query(query, out_dir)
            equal, diffs = cubes_match(cube, oracle_cube(out_dir, query))
            assert equal, (query.id, diffs)

    def test_capacity_guard(self, complex_300):
        _, out_dir, _ = complex_300
        with pytest.raises(OracleScopeError):
            oracle_cube(out_dir, get_query("D1"), fact_limit=100)

    def test_hand_computed_three_fact_fixture(self, tmp_path):
        """The oracle's own oracle: every entry computed by hand."""
        from xwbench.model import FactRecord, Warehouse, default_model
        from xwbench.workload import Query
        from conftest import make_instance

        model = default_model()
        date_row = {"day": "1998-06-25", "month": "1998-06", "year": "1998"}
        instances = {
            "part": [
                make_instance("part", [{"type3": "LARGE", "type2": "ANODIZED",
                                        "type1": "TIN"}], 1),
                make_instance("part", [{"type3": "LARGE", "type2": "ANODIZED",
                                        "type1": "TIN"}], 2),
                make_instance("part", [{"type3": "SMALL", "type2": "ANODIZED",
                                        "type1": "TIN"}], 3),
            ],
            "customer": [
                make_instance("customer", [{"nation": "FRANCE", "region": "EUROPE"}], 1),
                make_instance("customer", [{}], 2),  # anonymous
                make_instance("customer", [{"nation": "FRANCE", "region": "EUROPE"}], 3),
            ],
            "supplier": [
                make_instance("supplier", [{"nation": "FRANCE", "region": "EUROPE"},
                                           {"nation": "GERMANY", "region": "EUROPE"}], 1),
                make_instance("supplier", [{"nation": "GERMANY", "region": "EUROPE"},
                                           {"nation": "FRANCE", "region": "EUROPE"}], 2),
                make_instance("supplier", [{"nation": "INDIA", "region": "ASIA"}], 3),
            ],
            "date": [make_instance("date", [dict(date_row)], i) for i in (1, 2, 3)],
        }
        facts = [
            FactRecord(f"sale#{i}", q, a, {d: f"{d}#{i}" for d in model.dimension_ids})
            for i, (q, a) in enumerate([(10, 100.0), (5, 50.5), (7, 70.25)], start=1)
        ]
        out = tmp_path / "three"
        write_warehouse(Warehouse(model, facts, instances), str(out))

        sums = Query("H1", "SUM", ("f_quantity",),
                     (("part", "type3"), ("customer", "nation"),
                      ("supplier", "nation")))
        cube = oracle_cube(str(out), sums)
        fused = frozenset({"FRANCE", "GERMANY"})
        assert cube["fact_count"] == 3
        assert cube["grand_totals"] == {"f_quantity": 22}
        assert cube["entries"] == {
            ("LARGE", "FRANCE", fused): {"support": 1, "values": {"f_quantity": 10}},
            ("LARGE", OTHER, fused): {"support": 1, "values": {"f_quantity": 5}},
            ("SMALL", "FRANCE", "INDIA"): {"support": 1, "values": {"f_quantity": 7}},
        }

        avgs = Query("H2", "AVG", ("f_totalamount",), (("supplier", "nation"),))
        cube = oracle_cube(str(out), avgs)
        assert set(cube["entries"]) == {(fused,), ("INDIA",)}
        assert cube["entries"][(fused,)]["support"] == 2
        assert cube["entries"][(fused,)]["values"]["f_totalamount"] == \
               pytest.approx(75.25, rel=1e-12)
        assert cube["entries"][("INDIA",)]["values"]["f_totalamount"] == \
               pytest.approx(70.25, rel=1e-12)

        # the streaming engine agrees with the hand computation too
        for query in (sums, avgs):
            engine_cube, _ = run_query(query, str(out))
            equal, diffs = cubes_match(engine_cube, oracle_cube(str(out), query))
            assert equal, diffs


class TestPedersenMapping:
    def test_label_keys_map_onto_components(self, complex_300, tmp_path):
        from xwbench.engine_pedersen import transform_warehouse

        _, src, _ = complex_300
        out = str(tmp_path / "ped")
        transform_warehouse(src, out)
        query = get_query("D4")
        qbs, _ = run_query(query, src, engine="qbs")
        ped, _ = run_query(query, out, engine="pedersen")
        mapped = qbs_view_of_pedersen(ped)
        equal, diffs = cubes_match(qbs, mapped)
        assert equal, diffs
        assert any(isinstance(c, frozenset) for key in mapped["entries"] for c in key)
        assert any(c is OTHER for key in mapped["entries"] for c in key)


class TestReports:
    def test_csv_columns_fixed(self, tmp_path, complex_300):
        spec, out_dir, _ = complex_300
        report = run_cell(spec, out_dir, "qbs", get_query("D1"), "hash",
                          repeats=1, warmup=0)
        path = tmp_path / "report.csv"
        write_report(str(path), [report])
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == REPORT_COLUMNS
        assert len(rows) == 2
        row = dict(zip(rows[0], rows[1]))
        assert row["dataset"] == spec.id
        assert row["regime"] == "complex"
        assert row["engine"] == "qbs"
        assert row["overhead_ms"] == "0.000"
        assert row["chk_dup"] == row["chk_grand"] == "1"
        assert int(row["groups"]) > 0

    def test_infer_regime(self, grid_1k):
        for dataset_id, expected in (("simple-1000", "simple"),
                                     ("incomplete50-1000", "incomplete"),
                                     ("nonstrict50-1000", "nonstrict"),
                                     ("complex50-1000", "complex")):
            _, out_dir = grid_1k[dataset_id]
            assert infer_regime(out_dir) == expected


@pytest.fixture()
def parse_counts(monkeypatch):
    """Counts xmlio.iter_instances calls per dimension while the test runs."""
    parses = Counter()
    real = xmlio.iter_instances

    def counting(in_dir, schema):
        parses[schema.id] += 1
        return real(in_dir, schema)

    monkeypatch.setattr(xmlio, "iter_instances", counting)
    return parses


class TestCellLoading:
    def test_cell_parses_each_grouped_dimension_once(self, complex_300, parse_counts):
        spec, out_dir, _ = complex_300
        report = run_cell(spec, out_dir, "qbs", get_query("D2"), "hash",
                          repeats=3, warmup=1)
        assert report.error is None and report.checks_passed
        assert report.load_ms > 0
        assert parse_counts == {"part": 1, "date": 1}

    def test_naive_cell_parses_only_its_grouped_dimension(self, complex_300, parse_counts):
        spec, out_dir, _ = complex_300
        report = run_cell(spec, out_dir, "naive", get_query("D1"), "hash",
                          repeats=3, warmup=1)
        assert report.error is None
        assert parse_counts == {"date": 1}

    def test_standalone_query_loads_its_grouped_dimensions(self, complex_300,
                                                           parse_counts):
        _, out_dir, _ = complex_300
        query = get_query("D3")
        cube, timing = run_query(query, out_dir)
        assert parse_counts == {"part": 1, "customer": 1, "date": 1}
        assert timing.load_ms > 0
        assert check_correctness(cube, out_dir, query).passed
        assert parse_counts == {"part": 2, "customer": 2, "date": 2}

    def test_shared_indexes_are_not_reloaded(self, complex_300, parse_counts):
        _, out_dir, _ = complex_300
        query = get_query("D1")
        indexes = xmlio.load_dimensions(out_dir, xmlio.read_metadata(out_dir),
                                        query.grouped_dimensions)
        assert set(indexes) == {"date"}
        cube, timing = run_query(query, out_dir, indexes=indexes)
        assert timing.load_ms == 0.0
        assert check_correctness(cube, out_dir, query, indexes=indexes).passed
        naive = double_counting_cube(out_dir, query, indexes)
        assert cubes_match(cube, naive)[0]
        assert parse_counts == {"date": 1}


    @pytest.mark.parametrize("engine, matching", [("qbs", "hash"), ("qbs", "scan"),
                                                  ("naive", "hash")])
    def test_groups_counts_the_normalized_entries(self, complex_300, engine, matching):
        spec, out_dir, _ = complex_300
        query = get_query("D3")
        report = run_cell(spec, out_dir, engine, query, matching, repeats=1, warmup=0)
        if engine == "naive":
            cube = double_counting_cube(out_dir, query)
        else:
            cube, _ = run_query(query, out_dir, matching=matching)
        assert report.error is None
        assert report.groups > 1
        assert report.groups == len(normalize_cube(cube)["entries"])

    @pytest.mark.parametrize("engine", ["qbs", "pedersen"])
    def test_shared_indexes_stay_untouched(self, complex_300, tmp_path, engine):
        """The records are slotted, not frozen: reading shared indexes must not
        change them."""
        from xwbench.engine_pedersen import transform_warehouse

        _, in_dir, _ = complex_300
        if engine == "pedersen":
            in_dir = str(tmp_path / "ped")
            transform_warehouse(complex_300[1], in_dir)
        model = xmlio.read_metadata(in_dir)
        indexes = xmlio.load_dimensions(in_dir, model, model.dimension_ids)
        for query in standard_workload():
            for matching in ("hash", "scan"):
                cube, _ = run_query(query, in_dir, engine=engine, matching=matching,
                                    indexes=indexes)
            assert check_correctness(cube, in_dir, query, engine=engine,
                                     indexes=indexes).passed
            if engine == "qbs":
                double_counting_cube(in_dir, query, indexes)
        assert indexes == xmlio.load_dimensions(in_dir, model, model.dimension_ids)


class TestCellFailures:
    @pytest.fixture()
    def dangling_dir(self, tmp_path):
        """50 facts, the last one referencing a date instance that does not exist."""
        warehouse = generate_warehouse(GeneratorConfig(50, seed=3))
        last = warehouse.facts[-1]
        warehouse.facts[-1] = dataclasses.replace(
            last, dim_refs={**last.dim_refs, "date": "date#99999"})
        out = str(tmp_path / "dangling")
        write_warehouse(warehouse, out)
        return out

    def test_naive_cell_records_a_dangling_reference(self, dangling_dir):
        spec = DatasetSpec("dangling", 50)
        report = run_cell(spec, dangling_dir, "naive", get_query("D1"), "hash",
                          repeats=1, warmup=0)
        assert report.error is not None and "date#99999" in report.error
        assert report.row()[REPORT_COLUMNS.index("chk_grand")] == "ERR"

    def test_dangling_reference_is_referential_error(self, dangling_dir):
        query = get_query("D1")
        with pytest.raises(ReferentialError):
            double_counting_cube(dangling_dir, query)
        with pytest.raises(ReferentialError):
            check_correctness(ResultCube(query), dangling_dir, query)

    def test_missing_warehouse_directory_is_recorded(self, tmp_path):
        spec = DatasetSpec("absent", 10)
        report = run_cell(spec, str(tmp_path / "nope"), "qbs", get_query("D1"), "hash",
                          repeats=1, warmup=0)
        assert report.error is not None and "missing document" in report.error

    def test_unreadable_document_is_recorded(self, reference_dir):
        date_path = os.path.join(reference_dir, "d_date.xml")
        os.remove(date_path)
        os.mkdir(date_path)
        report = run_cell(DatasetSpec("unreadable", 1), reference_dir, "qbs",
                          get_query("D1"), "hash", repeats=1, warmup=0)
        assert report.error == f"{date_path}: cannot read: Is a directory"
        assert report.row()[REPORT_COLUMNS.index("chk_grand")] == "ERR"


class TestCampaign:
    def test_empty_matrix_writes_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        reports = run_campaign({"datasets": []}, str(path),
                               data_root=str(tmp_path / "data"))
        assert reports == []
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [REPORT_COLUMNS]

    def test_standard_matrix_mirrors_the_seven_regimes(self):
        specs = standard_matrix(facts=5000, seed=1)
        assert len(specs) == 7
        assert [s.regime for s in specs] == [
            "simple", "incomplete", "nonstrict", "complex",
            "incomplete", "nonstrict", "complex"]

    def test_small_campaign_and_size_determinism(self, tmp_path):
        matrix = {
            "datasets": [
                {"id": "simple-tiny", "facts": 120, "seed": 9},
                {"id": "complex-tiny", "facts": 120, "incomplete": 50,
                 "nonstrict": 50, "nonstrict_number": 2, "seed": 9},
            ],
            "engines": ["qbs", "pedersen"],
            "matching": ["hash"],
            "queries": ["D1", "Q24"],
            "repeats": 1,
            "warmup": 0,
        }
        report_path = tmp_path / "campaign.csv"
        reports = run_campaign(matrix, str(report_path),
                               data_root=str(tmp_path / "data"))
        assert len(reports) == 8  # 2 datasets x 2 engines x 2 queries
        assert all(r.error is None for r in reports)
        assert all(r.checks_passed for r in reports)
        for r in reports:
            if r.engine == "pedersen" and r.dataset == "complex-tiny":
                assert r.overhead_ms > 0
            if r.engine == "qbs":
                assert r.overhead_ms == 0.0

        sizes_path = tmp_path / "campaign-datasets.csv"
        first = sizes_path.read_text()
        # rerunning with the same seeds regenerates byte-identical datasets
        run_campaign(matrix, str(report_path), data_root=str(tmp_path / "data2"))
        assert sizes_path.read_text() == first

    def test_parallel_mode_produces_the_same_rows(self, tmp_path):
        matrix = {
            "datasets": [{"id": "tiny", "facts": 80, "seed": 2}],
            "engines": ["qbs"],
            "matching": ["hash", "scan"],
            "queries": ["D1", "D2"],
            "repeats": 1,
            "warmup": 0,
        }
        serial = run_campaign(matrix, str(tmp_path / "a.csv"),
                              data_root=str(tmp_path / "data"))
        parallel = run_campaign(matrix, str(tmp_path / "b.csv"),
                                data_root=str(tmp_path / "data"), parallel=True)
        key = lambda r: (r.dataset, r.engine, r.matching, r.query)
        assert [key(r) for r in serial] == [key(r) for r in parallel]
        assert all(r.checks_passed for r in parallel)

    def test_matrix_loads_from_json(self, tmp_path):
        from xwbench.harness import load_matrix

        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({"datasets": [{"id": "x", "facts": 10}]}))
        assert load_matrix(str(path))["datasets"][0]["facts"] == 10
