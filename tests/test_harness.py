"""Correctness checker, brute-force oracle, negative control, campaigns."""

import copy
import csv
import dataclasses
import errno
import json
import os
import pathlib
import pickle
import re
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import edit, make_instance, single_sale_warehouse
from test_xmlio import _XML_CHAR, _warehouses
from xwbench import engine_qbs, harness, workload, xmlio
from xwbench.engine_pedersen import transform_warehouse
from xwbench.engine_qbs import OTHER, component_label
from xwbench.errors import ConfigurationError, DocumentError, QueryError, ReferentialError
from xwbench.generator import GeneratorConfig, generate_warehouse
from xwbench.model import (F_QUANTITY, F_TOTALAMOUNT, DimensionInstance, FactRecord,
                           Warehouse, default_model)
from xwbench.harness import (
    DATASET_FILES,
    DatasetSpec,
    check_correctness,
    cubes_match,
    double_counting_cube,
    ensure_dataset,
    infer_regime,
    load_matrix,
    oracle_cube,
    run_campaign,
    run_cell,
    standard_matrix,
    write_report,
    REPORT_COLUMNS,
)
from xwbench.workload import (
    MATCH_HASH,
    MATCH_SCAN,
    ResultCube,
    get_query,
    parse_query_line,
    plan_query,
    run_query,
    standard_workload,
    validate_query,
)
from xwbench.xmlio import write_warehouse


@pytest.fixture(scope="module")
def complex_1600(tmp_path_factory):
    """1,600 complex50 facts (seed 1), where every group-by of D1, D2, Q23
    and Q24 has a group of two facts or more."""
    out_dir = str(tmp_path_factory.mktemp("complex") / "complex50-1600")
    generate_warehouse(GeneratorConfig(1600, 50, 50, 4, seed=1, output_dir=out_dir))
    return out_dir


# Run under a given PYTHONHASHSEED: the notes of a D4 check over the
# warehouse named by argv[1], once each group holding a fused set has one
# unit too many in its first sum.
_NOTES_OF_A_FAILED_CHECK = """
import json, sys
from xwbench.harness import check_correctness
from xwbench.workload import get_query, plan_query, run_query
plan = plan_query(get_query("D4"), sys.argv[1])
cube, _ = run_query(plan.query, sys.argv[1], plan=plan)
for key, entry in cube.entries.items():
    if any(isinstance(c, frozenset) for c in key):
        entry.states[0] += 1
print(json.dumps(check_correctness(cube, plan).notes))
"""


class TestCheckCorrectness:
    def test_correct_cube_passes_every_check(self, complex_300):
        _, out_dir, _ = complex_300
        for query in standard_workload():
            cube, _ = run_query(query, out_dir)
            report = check_correctness(cube, plan_query(query, out_dir))
            assert report.passed, (query.id, report.notes)

    def test_pedersen_cubes_pass_every_check(self, complex_300, tmp_path):
        from xwbench.engine_pedersen import transform_warehouse

        _, src, _ = complex_300
        out = str(tmp_path / "ped")
        transform_warehouse(src, out)
        for query in standard_workload():
            cube, _ = run_query(query, out, engine="pedersen")
            report = check_correctness(cube, plan_query(query, out, engine="pedersen"))
            assert report.passed, (query.id, report.notes)

    def test_perturbed_group_sum_fails_grand_total(self, complex_300):
        _, out_dir, _ = complex_300
        query = get_query("D2")
        cube, _ = run_query(query, out_dir)
        perturbed = copy.deepcopy(cube)
        entry = next(iter(perturbed.entries.values()))
        entry.states[0] += 1
        report = check_correctness(perturbed, plan_query(query, out_dir))
        assert not report.grand_ok
        assert report.dup_ok
        assert check_correctness(cube, plan_query(query, out_dir)).passed

    def test_one_cent_off_fails_at_8000_facts(self, tmp_path):
        """Amounts are summed in exact cents: at 8,000 facts, whose amounts
        add up to about 2 * 10**9 cents, one cent added to one D1 group fails
        chk_grand with one note naming that group, and one cent on a grand
        total is a cube difference."""
        out_dir = str(tmp_path / "simple")
        generate_warehouse(GeneratorConfig(8000, seed=42, output_dir=out_dir))
        query = get_query("D1")
        plan = plan_query(query, out_dir)
        cube, _ = run_query(query, out_dir, plan=plan)
        same, _ = run_query(query, out_dir, plan=plan)
        assert check_correctness(cube, plan).passed and cubes_match(cube, same)[0]
        grand = cube.grand_totals[1]
        assert grand > 10**9
        key, entry = next(iter(cube.entries.items()))
        quantity, cents = entry.states
        entry.states[1] += 1
        report = check_correctness(cube, plan)
        assert not report.grand_ok
        assert report.notes == (f"[{key[0]}]: support {entry.support}, sums [{quantity}, "
                                f"{cents + 1}] != recount {entry.support}, "
                                f"[{quantity}, {cents}]",)
        entry.states[1] -= 1
        cube.grand_totals[1] += 1
        assert cubes_match(cube, same) == (False, ["grand total f_totalamount differs"])

    def test_deep_copied_cube_keeps_its_other_groups(self, complex_300):
        """A copied cube's OTHER components are still OTHER, so the copy
        checks and matches like the cube it was copied from."""
        _, out_dir, _ = complex_300
        query = get_query("D4")
        cube, _ = run_query(query, out_dir)
        assert any(c is OTHER for key in cube.entries for c in key)
        for copied in (copy.deepcopy(cube), pickle.loads(pickle.dumps(cube))):
            assert cubes_match(cube, copied)[0]
            assert check_correctness(copied, plan_query(query, out_dir)).passed

    def test_unknown_engine_is_configuration_error(self, complex_300):
        """The check takes its engine from a plan, and no plan has an
        unknown engine."""
        _, out_dir, _ = complex_300
        with pytest.raises(ConfigurationError):
            plan_query(get_query("D1"), out_dir, engine="turbo")

    def test_measures_in_any_order(self, tmp_path):
        out_dir = str(tmp_path / "complex")
        generate_warehouse(GeneratorConfig(200, 50, 50, 4, seed=3, output_dir=out_dir))
        query = parse_query_line("X SUM f_totalamount,f_quantity date.day")
        cube, _ = run_query(query, out_dir)
        assert cubes_match(cube, oracle_cube(out_dir, query))[0]
        assert check_correctness(cube, plan_query(query, out_dir)).passed
        report = run_cell(DatasetSpec("complex", 200), out_dir, "qbs", query, "hash",
                          repeats=1, warmup=0)
        assert report.error is None and report.checks_passed

    @staticmethod
    def assert_two_groups_print_alike(out_dir, first, second):
        """Grouped by supplier nation, the two sales of `out_dir` form the
        groups `first` and `second`, as the oracle does too, and only
        chk_dup fails, since the report prints both keys alike."""
        query = parse_query_line("X SUM f_quantity supplier.nation")
        cube, _ = run_query(query, out_dir)
        assert set(cube.entries) == {(first,), (second,)}
        assert cubes_match(cube, oracle_cube(out_dir, query))[0]
        report = check_correctness(cube, plan_query(query, out_dir))
        assert not report.dup_ok
        assert report.grand_ok and report.avg_ok and report.minmax_ok
        assert report.notes == ("1 group key prints like another",)

    def test_group_keys_that_print_alike_fail_dup(self, tmp_path):
        """A real nation 'FRANCE+GERMANY' and the fused {FRANCE, GERMANY}
        are two groups of the cube that the report prints as one label."""
        out = _two_supplier_warehouse(
            tmp_path, [{"nation": "FRANCE+GERMANY", "region": "EUROPE"}],
            [{"nation": "FRANCE", "region": "EUROPE"}, {"nation": "GERMANY", "region": "EUROPE"}])
        self.assert_two_groups_print_alike(out, "FRANCE+GERMANY",
                                           frozenset({"FRANCE", "GERMANY"}))

    @pytest.mark.parametrize("fused", [False, True], ids=["atomic", "fused"])
    def test_real_other_stays_apart_from_a_missing_member(self, tmp_path, fused):
        """A real nation 'Other' is a group of its own beside a supplier with
        no nation, atomic or as a member of a fused set: they only print
        alike."""
        other, missing = {"nation": "Other", "region": "EUROPE"}, {"region": "EUROPE"}
        france = [{"nation": "FRANCE", "region": "EUROPE"}] if fused else []
        out = _two_supplier_warehouse(tmp_path, france + [other], france + [missing])
        if fused:
            self.assert_two_groups_print_alike(out, frozenset({"FRANCE", "Other"}),
                                               frozenset({"FRANCE", OTHER}))
        else:
            self.assert_two_groups_print_alike(out, "Other", OTHER)

    def test_double_counting_engine_fails_on_nonstrict_data(self, grid_1k):
        """The deliberately broken engine is caught on every non-strict set,
        by every query that groups a non-strict level."""
        for dataset_id in ("nonstrict5-1000", "nonstrict50-1000",
                           "complex5-1000", "complex50-1000"):
            _, out_dir = grid_1k[dataset_id]
            for query_id in ("D2", "D3", "D4", "Q22", "Q23", "Q24"):
                plan = plan_query(get_query(query_id), out_dir)
                report = check_correctness(double_counting_cube(plan), plan)
                assert not report.grand_ok, (dataset_id, query_id)

    def test_double_counting_engine_is_clean_on_simple_data(self, grid_1k):
        _, out_dir = grid_1k["simple-1000"]
        plan = plan_query(get_query("D4"), out_dir)
        assert check_correctness(double_counting_cube(plan), plan).passed

    def test_double_counting_engine_is_clean_with_a_real_other(self, tmp_path):
        """On simple data a supplier nation spelled 'Other' is a value like
        any other, to the control and to the check's recount alike."""
        out_dir = str(tmp_path / "simple")
        generate_warehouse(GeneratorConfig(200, seed=7, output_dir=out_dir))
        path = os.path.join(out_dir, "d_supplier.xml")
        text = pathlib.Path(path).read_text(encoding="utf-8")
        pathlib.Path(path).write_text(
            re.sub("<nation>[^<]*</nation>", "<nation>Other</nation>", text, count=1),
            encoding="utf-8")
        for query in (get_query("D4"), parse_query_line("X SUM f_quantity supplier.nation")):
            plan = plan_query(query, out_dir)
            cube = double_counting_cube(plan)
            assert any("Other" in key for key in cube.entries), query.id
            assert check_correctness(cube, plan).passed, query.id

    def test_wrong_grand_totals_fail_grand(self, tmp_path):
        """chk_grand compares each grand total the cube holds with the sum
        of its measure's column, whatever the groups hold."""
        out_dir = str(tmp_path / "complex")
        generate_warehouse(GeneratorConfig(1000, 50, 50, 4, seed=1, output_dir=out_dir))
        plan = plan_query(get_query("D1"), out_dir)
        cube, _ = run_query(plan.query, out_dir, plan=plan)
        assert check_correctness(cube, plan).passed
        quantity, amount = cube.grand_totals
        cube.grand_totals = [0, 0]
        report = check_correctness(cube, plan)
        assert not report.grand_ok
        assert report.dup_ok and report.avg_ok and report.minmax_ok
        assert report.notes == (f"f_quantity: grand total 0 != {quantity}",
                                f"f_totalamount: grand total 0 != {amount}")

    @pytest.mark.parametrize("matching", [MATCH_HASH, MATCH_SCAN])
    @pytest.mark.parametrize("query_id, flag", [
        ("D1", "grand_ok"), ("D2", "grand_ok"), ("Q23", "minmax_ok"), ("Q24", "avg_ok")],
        ids=["D1", "D2", "Q23", "Q24"])
    def test_recount_sees_a_fact_matched_to_another_group(self, complex_1600, monkeypatch,
                                                          query_id, flag, matching):
        """The recount groups by the run's own keys, and each group is
        compared with its recount, so a fault in matching still shows: one
        fact of a group that already holds one is sent to the first other
        group's entry, and the aggregate's own check fails on both groups,
        whatever the totals say."""
        out_dir = complex_1600
        plan = plan_query(get_query(query_id), out_dir)
        real_entry_for = ResultCube.entry_for
        moved = []

        def misrouting(cube, key):
            if not moved and key in cube.entries:
                other = next((k for k in cube.entries if k != key), None)
                if other is not None:
                    moved.append((key, other))
                    return cube.entries[other]
            return real_entry_for(cube, key)

        monkeypatch.setattr(ResultCube, "entry_for", misrouting)
        cube, _ = run_query(plan.query, out_dir, matching=matching, plan=plan)
        assert moved
        report = check_correctness(cube, plan)
        failed = [f for f in ("dup_ok", "grand_ok", "avg_ok", "minmax_ok")
                  if not getattr(report, f)]
        assert failed == [flag], report.notes
        # A note names each group by its labels, which print a fused set's
        # members sorted, however it was inserted.
        assert {note.partition(": support")[0] for note in report.notes} == {
            f"[{' | '.join(map(component_label, key))}]" for key in moved[0]}, report.notes

    def test_notes_do_not_depend_on_the_hash_seed(self, complex_300):
        """A note names a group by its labels, a fused set's members sorted,
        so a failed check on groups holding fused sets gives the same notes
        under two string-hash seeds."""
        _, out_dir, _ = complex_300
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        runs = []
        for seed in ("0", "5"):
            env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed}
            done = subprocess.run([sys.executable, "-c", _NOTES_OF_A_FAILED_CHECK, out_dir],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            runs.append(json.loads(done.stdout))
        assert runs[0] == runs[1]
        assert any("+" in note for note in runs[0]), runs[0]

    @pytest.mark.parametrize("query_id", ["D4", "Q24"])
    def test_recount_sees_a_fact_left_out_of_aggregation(self, complex_300, monkeypatch,
                                                         query_id):
        """One fact counted into its entry's support without its values:
        the group totals, or the average, no longer agree with the recount."""
        _, out_dir, _ = complex_300
        plan = plan_query(get_query(query_id), out_dir)
        real_step = workload.aggregate_step
        calls = []

        def dropping(entry, values, aggregate):
            calls.append(values)
            if len(calls) == 1:
                entry.support += 1
                return entry
            return real_step(entry, values, aggregate)

        monkeypatch.setattr(workload, "aggregate_step", dropping)
        cube, _ = run_query(plan.query, out_dir, plan=plan)
        assert len(calls) == len(plan.facts)
        report = check_correctness(cube, plan)
        assert report.dup_ok and not report.passed
        assert not (report.grand_ok if query_id == "D4" else report.avg_ok), report.notes

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 3).flatmap(
        lambda width: st.sets(st.tuples(*[st.sampled_from(_COMPONENTS)] * width),
                              max_size=12)))
    def test_dup_count_is_the_key_level_count(self, keys):
        """Labelling each position's components once counts exactly what
        labelling every key whole counts."""
        entries = dict.fromkeys(keys)
        assert harness._printed_duplicates(entries) == _key_level_duplicates(entries)

    @pytest.mark.parametrize("incomplete, nonstrict", [(0, 0), (50, 50)],
                             ids=["simple", "complex50"])
    def test_check_adds_less_memory_than_the_query(self, tmp_path, incomplete, nonstrict):
        """The check reads the cube, and the keys the run left on the plan,
        in place: the peak it adds over what the run left stays below 1.5
        times the peak of the run that built the cube.  At 10,000 facts
        CPython's tuple free list, which holds 2,000 tuples of a length, no
        longer hides the key tuples from tracemalloc."""
        out = str(tmp_path / "w")
        generate_warehouse(GeneratorConfig(10_000, incomplete, nonstrict, 4 if nonstrict else 0,
                                           seed=3, output_dir=out))
        for query_id in ("D4", "Q24"):
            plan = plan_query(get_query(query_id), out)
            tracemalloc.start()
            try:
                cube, _ = run_query(plan.query, out, plan=plan)
                _, query_peak = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                held, _ = tracemalloc.get_traced_memory()
                report = check_correctness(cube, plan)
                _, check_peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert report.passed, (query_id, report.notes)
            assert check_peak - held < 1.5 * query_peak, (query_id, check_peak - held,
                                                          query_peak)

    def test_check_holds_no_list_of_keys(self, tmp_path):
        """The recount reads the keys the run left on the plan in place and
        keeps one slot per group: over 10,000 facts in five groups it adds
        less than two pointers per fact, where a list of every key would add
        a pointer and a tuple per fact, and resolving the keys again would
        add a column of components per grouped dimension."""
        out = str(tmp_path / "w")
        generate_warehouse(GeneratorConfig(10_000, seed=3, output_dir=out))
        plan = plan_query(parse_query_line("X SUM f_quantity supplier.region"), out)
        cube, _ = run_query(plan.query, out, plan=plan)
        tracemalloc.start()
        try:
            report = check_correctness(cube, plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed, report.notes
        assert len(cube.entries) == 5
        assert peak < 16 * len(plan.facts), peak


# Components whose labels collide: real values spelled like labels beside
# the fused sets and OTHER that print as them.
_COMPONENTS = ("A", "B", "C", "A+B", "B+C", "Other", OTHER, frozenset({"A", "B"}),
               frozenset({"B", "C"}), frozenset({"A", "B+C"}), frozenset({"A+B", "C"}),
               frozenset({"A", OTHER}), frozenset({"A", "Other"}))


def _key_level_duplicates(entries) -> int:
    """How many keys print like another, counted over whole label tuples:
    every key holding a fused set or OTHER is labelled."""
    labelled = [key for key in entries if not all(isinstance(c, str) for c in key)]
    labels = {tuple(component_label(c) for c in key) for key in labelled}
    return len(labelled) - len(labels) + sum(label in entries for label in labels)


def _by_key(cube) -> dict:
    """Each entry's support and values under its own key, unlabelled."""
    return {key: (entry.support, entry.values(cube.query.aggregate))
            for key, entry in cube.entries.items()}


class TestOracle:
    def test_single_fact_cube(self, reference_dir):
        cube = oracle_cube(reference_dir, get_query("Q21"))
        assert cube.fact_count == 1
        ((key, entry),) = cube.entries.items()
        assert key == ("part#1", "customer#1", "supplier#1", "date#1")
        assert entry.values("SUM") == (100, 280000)

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
        assert len(cube.entries) == 1
        ((key, entry),) = cube.entries.items()
        assert key[2] == frozenset({"FRANCE", "GERMANY"})
        assert entry.support == 1

    def test_matches_run_query_on_a_complex_warehouse(self, complex_300):
        _, out_dir, _ = complex_300
        for query in standard_workload():
            cube, _ = run_query(query, out_dir)
            equal, diffs = cubes_match(cube, oracle_cube(out_dir, query))
            assert equal, (query.id, diffs)

    @pytest.mark.parametrize("declared", [("f_totalamount", "f_quantity"),
                                          ("f_quantity", "f_totalamount", "f_quantity")],
                             ids=["swapped", "repeated"])
    def test_sale_measure_order_is_the_writers(self, reference_dir, declared):
        """However the metadata orders or repeats the measures, a written sale
        reads as written, the facts reader and the oracle agree, and one with
        its measures swapped is rejected by both."""
        edit(os.path.join(reference_dir, xmlio.METADATA_FILE),
             re.compile("(    <measure id='[a-z_]+'/>\n)+"),
             "".join(f"    <measure id='{m}'/>\n" for m in declared))
        model = xmlio.read_metadata(reference_dir)
        assert model.measures == declared

        def read_facts():
            columns = xmlio.load_facts(reference_dir, model, ())
            return {measure: list(column) for measure, column in columns.measures.items()}

        assert read_facts() == {F_QUANTITY: [100], F_TOTALAMOUNT: [280000]}
        query = get_query("D2")
        cube, _ = run_query(query, reference_dir)
        assert cubes_match(cube, oracle_cube(reference_dir, query))[0]
        edit(os.path.join(reference_dir, model.fact_path),
             "<f_quantity>100</f_quantity>\n    <f_totalamount>2800.00</f_totalamount>",
             "<f_totalamount>2800.00</f_totalamount>\n    <f_quantity>100</f_quantity>")
        for read in (read_facts, lambda: run_query(query, reference_dir),
                     lambda: oracle_cube(reference_dir, query)):
            with pytest.raises(DocumentError, match="'sale#1'"):
                read()

    def test_avg_equals_the_oracles_exactly(self, grid_1k):
        """AVG's running sum of cents, divided by the support, is the
        oracle's average to the last bit on a complex warehouse."""
        _, out_dir = grid_1k["complex50-1000"]
        query = get_query("Q24")
        cube, _ = run_query(query, out_dir)
        reference = oracle_cube(out_dir, query)
        assert cube.entries.keys() == reference.entries.keys()
        for key, entry in cube.entries.items():
            expected = reference.entries[key]
            assert entry.support == expected.support, key
            assert entry.values("AVG") == expected.values("AVG"), key

    def test_answers_beyond_ten_thousand_facts(self, tmp_path):
        """The oracle streams its documents, so it has no fact ceiling."""
        out = str(tmp_path / "w")
        generate_warehouse(GeneratorConfig(10_001, seed=5, output_dir=out))
        query = get_query("D1")
        reference = oracle_cube(out, query)
        assert reference.fact_count == 10_001
        equal, diffs = cubes_match(run_query(query, out)[0], reference)
        assert equal, diffs

    def test_memory_is_a_few_kib_per_fact(self, tmp_path):
        """Streaming holds no document tree: D4 over 4,000 complex facts
        peaks under 3 KiB per fact."""
        out = str(tmp_path / "w")
        generate_warehouse(GeneratorConfig(4000, 50, 50, 4, seed=5, output_dir=out))
        tracemalloc.start()
        try:
            cube = oracle_cube(out, get_query("D4"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cube.fact_count == 4000
        assert peak < 3 * 1024 * 4000, peak

    def test_hand_computed_three_fact_fixture(self, tmp_path):
        """The oracle's own oracle: every entry computed by hand."""
        from xwbench.workload import Query

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
            for i, (q, a) in enumerate([(10, 10000), (5, 5050), (7, 7025)], start=1)
        ]
        out = tmp_path / "three"
        write_warehouse(Warehouse(model, facts, instances), str(out))

        sums = Query("H1", "SUM", ("f_quantity",),
                     (("part", "type3"), ("customer", "nation"),
                      ("supplier", "nation")))
        cube = oracle_cube(str(out), sums)
        fused = frozenset({"FRANCE", "GERMANY"})
        assert cube.fact_count == 3
        assert cube.grand_totals == [22]
        assert {key: (entry.support, entry.values("SUM"))
                for key, entry in cube.entries.items()} == {
            ("LARGE", "FRANCE", fused): (1, (10,)),
            ("LARGE", OTHER, fused): (1, (5,)),
            ("SMALL", "FRANCE", "INDIA"): (1, (7,)),
        }

        avgs = Query("H2", "AVG", ("f_totalamount",), (("supplier", "nation"),))
        cube = oracle_cube(str(out), avgs)
        assert set(cube.entries) == {(fused,), ("INDIA",)}
        assert cube.entries[(fused,)].support == 2
        assert cube.entries[(fused,)].values("AVG") == (7525.0,)
        assert cube.entries[("INDIA",)].values("AVG") == (7025.0,)

        # the streaming engine agrees with the hand computation too
        for query in (sums, avgs):
            engine_cube, _ = run_query(query, str(out))
            equal, diffs = cubes_match(engine_cube, oracle_cube(str(out), query))
            assert equal, diffs


# Level values that collide with the transform's labels, beside plain ones.
_LABEL_SPELLINGS = ("Other", "A+B", "+")
_PLAIN_VALUES = ("A", "B", "")


@st.composite
def _labelled_warehouses(draw):
    """Small default-model warehouses whose level values are drawn from
    _PLAIN_VALUES and, in about half of them, _LABEL_SPELLINGS too, with
    holes, multi-row instances and rows that hold no level at all."""
    model = default_model()
    values = st.sampled_from(draw(st.sampled_from(
        [_PLAIN_VALUES, _PLAIN_VALUES + _LABEL_SPELLINGS])))
    instances = {schema.id: [DimensionInstance(f"{schema.id}#{n}", tuple(
        draw(st.lists(st.fixed_dictionaries({}, optional=dict.fromkeys(schema.levels, values)),
                      min_size=1, max_size=3))))
        for n in range(1, draw(st.integers(1, 3)) + 1)] for schema in model.dimensions}
    facts = [FactRecord(f"sale#{i}", draw(st.integers(0, 100)), draw(st.integers(0, 10**4)),
                        {dim_id: f"{dim_id}#{draw(st.integers(1, len(instances[dim_id])))}"
                         for dim_id in model.dimension_ids})
             for i in range(1, draw(st.integers(1, 4)) + 1)]
    return Warehouse(model, facts, instances)


@st.composite
def _query_lines(draw):
    """A workload line of any aggregate and measures, grouping any of the
    dimensions at any level or at instance level, or none."""
    aggregate = draw(st.sampled_from(["SUM", "MIN", "MAX", "AVG"]))
    measures = draw(st.lists(st.sampled_from([F_QUANTITY, F_TOTALAMOUNT]),
                             min_size=1, max_size=2, unique=True))
    dimensions = draw(st.lists(st.sampled_from(default_model().dimensions),
                               max_size=4, unique_by=lambda schema: schema.id))
    grouping = [schema.id + draw(st.sampled_from(["", *(f".{level}" for level in schema.levels)]))
                for schema in dimensions]
    return f"X {aggregate} {','.join(measures)} {','.join(grouping) or '-'}"


class TestPedersenMapping:
    def test_engines_give_the_same_labelled_rows(self, complex_300, tmp_path):
        """pedersen's keys are labels already, so its cube compares with
        qbs's as it is: the two give the same rows, fused labels and Other
        among them."""
        _, src, _ = complex_300
        out = str(tmp_path / "ped")
        transform_warehouse(src, out)
        query = get_query("D4")
        qbs, _ = run_query(query, src, engine="qbs")
        ped, _ = run_query(query, out, engine="pedersen")
        rows = sorted(qbs.rows())
        assert rows == sorted(ped.rows())
        assert cubes_match(qbs, ped) == (True, [])
        fused = {component_label(c) for key in qbs.entries for c in key
                 if isinstance(c, frozenset)}
        labels = {label for labels, _, _ in rows for label in labels}
        assert fused and fused <= labels
        assert "Other" in labels and any(c is OTHER for key in qbs.entries for c in key)

    @settings(max_examples=40, deadline=None)
    @given(facts=st.integers(min_value=0, max_value=60),
           incomplete=st.sampled_from([0, 5, 50, 100]),
           nonstrict=st.sampled_from([0, 5, 50, 100]),
           k=st.integers(min_value=2, max_value=4),
           seed=st.integers(min_value=0, max_value=2**64 - 1))
    def test_engines_and_oracle_agree_on_any_generated_warehouse(
            self, facts, incomplete, nonstrict, k, seed):
        """qbs, pedersen (mapped back onto components) and the oracle agree
        on every standard query under both matchings, down to empty and
        one-fact warehouses and 100% settings."""
        with tempfile.TemporaryDirectory() as tmp:
            raw, ped = os.path.join(tmp, "raw"), os.path.join(tmp, "ped")
            generate_warehouse(GeneratorConfig(
                facts, incomplete_percentage=incomplete, nonstrict_percentage=nonstrict,
                nonstrict_number=k, seed=seed, output_dir=raw))
            transform_warehouse(raw, ped)
            for query in standard_workload():
                oracle = oracle_cube(raw, query)
                for matching in (MATCH_HASH, MATCH_SCAN):
                    qbs, _ = run_query(query, raw, engine="qbs", matching=matching)
                    pedersen, _ = run_query(query, ped, engine="pedersen",
                                            matching=matching)
                    for equal, diffs in (cubes_match(qbs, pedersen),
                                         cubes_match(qbs, oracle)):
                        assert equal, (query.id, matching, diffs)

    def test_instance_ids_are_not_read_as_labels(self, tmp_path):
        """A dimension whose id holds '+' spells its instance ids with it;
        grouped at instance level, pedersen's keys map back as they are."""
        model = default_model()
        model = dataclasses.replace(model, dimensions=tuple(
            dataclasses.replace(schema, id="sup+plier") if schema.id == "supplier" else schema
            for schema in model.dimensions))
        instances = {schema.id: [make_instance(schema.id, [dict.fromkeys(schema.levels, "A")])]
                     for schema in model.dimensions}
        facts = [FactRecord("sale#1", 1, 100, {d: f"{d}#1" for d in model.dimension_ids})]
        raw, ped = str(tmp_path / "raw"), str(tmp_path / "ped")
        write_warehouse(Warehouse(model, facts, instances), raw)
        transform_warehouse(raw, ped)
        query = parse_query_line("X SUM f_quantity sup+plier,part.type1")
        qbs, _ = run_query(query, raw)
        assert list(qbs.entries) == [("sup+plier#1", "A")]
        pedersen, _ = run_query(query, ped, engine="pedersen")
        assert cubes_match(qbs, pedersen)[0]

    @settings(max_examples=60, deadline=None)
    @given(warehouse=_labelled_warehouses(), line=_query_lines())
    def test_engines_and_oracle_agree_where_values_are_spelled_like_labels(
            self, warehouse, line):
        """qbs equals the oracle under both matchings on any warehouse the
        readers accept, a real 'Other' or 'A+B' included, in label space and
        key by key, since a real 'A+B' and the fused {A, B} print alike; the
        transform refuses exactly the warehouses holding such a value, and on
        every other one pedersen equals qbs."""
        query = parse_query_line(line)
        with tempfile.TemporaryDirectory() as tmp:
            raw, ped = os.path.join(tmp, "raw"), os.path.join(tmp, "ped")
            write_warehouse(warehouse, raw)
            oracle = oracle_cube(raw, query)
            qbs = {}
            for matching in (MATCH_HASH, MATCH_SCAN):
                qbs[matching], _ = run_query(query, raw, matching=matching)
                equal, diffs = cubes_match(qbs[matching], oracle)
                assert equal, (matching, diffs)
                assert _by_key(qbs[matching]) == _by_key(oracle), matching
            if _spelled_like_label(warehouse):
                with pytest.raises(DocumentError, match="spelled like a label"):
                    transform_warehouse(raw, ped)
                return
            transform_warehouse(raw, ped)
            for matching in (MATCH_HASH, MATCH_SCAN):
                pedersen, _ = run_query(query, ped, engine="pedersen", matching=matching)
                equal, diffs = cubes_match(qbs[matching], pedersen)
                assert equal, (matching, diffs)


class TestReports:
    def test_headers_are_spelled_as_documented(self, tmp_path):
        """The report's header as README.md spells it, and the dataset sizes'
        header, byte for byte."""
        report = tmp_path / "report.csv"
        write_report(str(report), [])
        assert report.read_bytes() == (
            b"dataset,regime,facts,incomplete_pct,nonstrict_pct,nonstrict_num,engine,matching,"
            b"query,load_ms,overhead_ms,query_ms,read_ms,resolve_ms,match_ms,agg_ms,groups,"
            b"chk_dup,chk_grand,chk_avg,chk_minmax\r\n")
        sizes = tmp_path / "sizes.csv"
        harness.write_dataset_sizes(str(sizes), [], [])
        assert sizes.read_bytes() == (
            b"dataset,regime,facts,incomplete_pct,nonstrict_pct,nonstrict_num,seed,"
            b"dw_model_bytes,f_sale_bytes,d_part_bytes,d_customer_bytes,d_supplier_bytes,"
            b"d_date_bytes,total_bytes\r\n")

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


class TestCellLoading:
    def test_cell_parses_each_grouped_dimension_once(self, complex_300, parse_counts):
        spec, out_dir, _ = complex_300
        report = run_cell(spec, out_dir, "qbs", get_query("D2"), "hash",
                          repeats=3, warmup=1)
        assert report.error is None and report.checks_passed
        assert report.load_ms > 0 and report.read_ms > 0
        assert parse_counts == {"part": 1, "date": 1, "facts": 1, "metadata": 1}

    def test_naive_cell_parses_only_its_grouped_dimension(self, complex_300, parse_counts):
        spec, out_dir, _ = complex_300
        report = run_cell(spec, out_dir, "naive", get_query("D1"), "hash",
                          repeats=3, warmup=1)
        assert report.error is None and report.read_ms > 0
        assert parse_counts == {"date": 1, "facts": 1, "metadata": 1}

    def test_standalone_query_loads_its_grouped_dimensions(self, complex_300,
                                                           parse_counts):
        _, out_dir, _ = complex_300
        query = get_query("D3")
        cube, _ = run_query(query, out_dir)
        assert parse_counts == {"part": 1, "customer": 1, "date": 1, "facts": 1,
                                "metadata": 1}
        plan = plan_query(query, out_dir)
        assert plan.load_ms > 0 and plan.read_ms > 0
        assert check_correctness(cube, plan).passed
        assert parse_counts == {"part": 2, "customer": 2, "date": 2, "facts": 2,
                                "metadata": 2}

    def test_shared_indexes_are_not_reloaded(self, complex_300, parse_counts):
        _, out_dir, _ = complex_300
        plan = plan_query(get_query("D1"), out_dir)
        assert set(plan.facts.ordinals) == {"date"}
        assert len(plan.facts) == 300
        loaded = Counter(parse_counts)
        assert loaded == {"date": 1, "facts": 1, "metadata": 1}
        cube, _ = run_query(plan.query, out_dir, plan=plan)
        assert check_correctness(cube, plan).passed
        naive = double_counting_cube(plan)
        assert cubes_match(cube, naive)[0]
        assert parse_counts == loaded


    @pytest.mark.parametrize("engine, matching", [("qbs", "hash"), ("qbs", "scan"),
                                                  ("naive", "hash")])
    def test_groups_counts_the_normalized_entries(self, complex_300, engine, matching):
        spec, out_dir, _ = complex_300
        query = get_query("D3")
        report = run_cell(spec, out_dir, engine, query, matching, repeats=1, warmup=0)
        if engine == "naive":
            cube = double_counting_cube(plan_query(query, out_dir))
        else:
            cube, _ = run_query(query, out_dir, matching=matching)
        assert report.error is None
        assert report.groups > 1
        assert report.groups == len(cube.entries)

    @pytest.mark.parametrize("engine, repeats, warmup, calls", [
        ("qbs", 1, 0, 4), ("qbs", 3, 1, 16), ("naive", 1, 0, 4)])
    def test_each_run_resolves_once_and_the_check_reuses_it(
            self, complex_300, monkeypatch, engine, repeats, warmup, calls):
        """D4 groups four dimensions, so one resolution is four column
        calls: one per run, and none for the check, which recounts by the
        last run's keys; the control runs no query, so its check resolves."""
        spec, out_dir, _ = complex_300
        real_resolve = engine_qbs.resolve_column
        made = []

        def counting(index, ordinals, level):
            made.append(level)
            return real_resolve(index, ordinals, level)

        monkeypatch.setattr(engine_qbs, "resolve_column", counting)
        report = run_cell(spec, out_dir, engine, get_query("D4"), "hash",
                          repeats=repeats, warmup=warmup)
        assert report.error is None and report.checks_passed == (engine == "qbs")
        assert len(made) == calls

    @pytest.mark.parametrize("engine", ["qbs", "pedersen"])
    def test_shared_indexes_stay_untouched(self, complex_300, tmp_path, engine):
        """The records are slotted, not frozen, and the columns are mutable
        arrays: running, checking and controlling a plan must not change its
        indexes or columns."""
        _, in_dir, _ = complex_300
        if engine == "pedersen":
            in_dir = str(tmp_path / "ped")
            transform_warehouse(complex_300[1], in_dir)
        for query in standard_workload():
            plan = plan_query(query, in_dir, engine)
            for matching in ("hash", "scan"):
                cube, _ = run_query(query, in_dir, matching=matching, plan=plan)
            assert check_correctness(cube, plan).passed
            if engine == "qbs":
                double_counting_cube(plan)
            fresh = plan_query(query, in_dir, engine)
            assert (plan.steps, plan.facts) == (fresh.steps, fresh.facts)


def _full_row_plan(plan, in_dir):
    """`plan` over full-row indexes: every level of every grouped instance,
    as load_dimensions reads them unprojected, with the plan's own fact columns."""
    full = xmlio.load_dimensions(in_dir, xmlio.read_metadata(in_dir),
                                 dict.fromkeys(plan.query.grouped_dimensions))
    return dataclasses.replace(plan, steps=tuple(
        (level, full[dim_id], ordinals)
        for (dim_id, level), (_, _, ordinals) in zip(plan.query.grouping, plan.steps)))


def _two_supplier_warehouse(tmp_path, first_rows, second_rows) -> str:
    """Two sales on equal part, customer and date instances, sale n on a
    supplier with the rows of the n-th argument; its directory."""
    model = default_model()
    plain_rows = {
        "part": [{"type3": "LARGE", "type2": "ANODIZED", "type1": "TIN"}],
        "customer": [{"nation": "FRANCE", "region": "EUROPE"}],
        "date": [{"day": "1998-06-25", "month": "1998-06", "year": "1998"}],
    }
    instances = {dim: [make_instance(dim, rows, i) for i in (1, 2)]
                 for dim, rows in plain_rows.items()}
    instances["supplier"] = [make_instance("supplier", first_rows, 1),
                             make_instance("supplier", second_rows, 2)]
    facts = [FactRecord(f"sale#{i}", 10 * i, 10000 * i,
                        {d: f"{d}#{i}" for d in model.dimension_ids}) for i in (1, 2)]
    out = str(tmp_path / "alike")
    write_warehouse(Warehouse(model, facts, instances), out)
    return out


def _spelled_like_label(warehouse) -> bool:
    """Whether a level value of `warehouse` is spelled like a label the
    transform writes: the placeholder, or a value holding the fusing '+'."""
    return any(value == "Other" or "+" in value
               for instances in warehouse.instances.values() for inst in instances
               for row in inst.rows for value in row.values())


def _writable(warehouse):
    """`warehouse` with plain sale ids and no level value holding a
    character that has no written form, so the writers write it."""
    clean = re.compile("[\r\x00\ufffe]").sub
    return Warehouse(
        warehouse.model,
        [dataclasses.replace(f, fact_id=f"sale#{n}") for n, f in enumerate(warehouse.facts, 1)],
        {dim_id: [dataclasses.replace(inst, rows=tuple(
            {level: clean("", v) for level, v in row.items()} for row in inst.rows))
            for inst in insts] for dim_id, insts in warehouse.instances.items()})


class TestProjection:
    """A plan's indexes hold only the grouped level of each row; grouping
    over them is grouping over the whole rows."""

    def test_rows_hold_the_grouped_level_alone(self, complex_300):
        _, out_dir, warehouse = complex_300
        plan = plan_query(get_query("Q23"), out_dir)
        for (dim_id, level), (_, index, _) in zip(plan.query.grouping, plan.steps):
            rows = [row for inst in index for row in inst.rows]
            assert all(set(row) <= {level} for row in rows), dim_id
            assert ([[row.get(level) for row in inst.rows] for inst in index]
                    == [[row.get(level) for row in inst.rows]
                        for inst in warehouse.instances[dim_id]]), dim_id
            # Equal rows are one dict.
            assert len({id(row) for row in rows}) == len({row.get(level) for row in rows})

    def test_q21_rows_hold_no_cells(self, complex_300):
        _, out_dir, warehouse = complex_300
        plan = plan_query(get_query("Q21"), out_dir)
        for (dim_id, level), (_, index, _) in zip(plan.query.grouping, plan.steps):
            assert level is None
            assert all(row == {} for inst in index for row in inst.rows)
            assert ([len(inst.rows) for inst in index]
                    == [len(inst.rows) for inst in warehouse.instances[dim_id]])

    def test_load_builds_no_record_per_sale(self, complex_300, monkeypatch):
        """The fact columns are filled from the sale matches, with no
        FactRecord on the way."""
        def no_record(*args):
            raise AssertionError("a FactRecord was built")

        _, out_dir, warehouse = complex_300
        monkeypatch.setattr(xmlio, "FactRecord", no_record)
        plan = plan_query(get_query("D4"), out_dir)
        assert len(plan.facts) == len(warehouse.facts)
        assert list(plan.facts.ordinals["date"]) == [
            int(f.dim_refs["date"].partition("#")[2]) for f in warehouse.facts]

    @settings(max_examples=25, deadline=None)
    @given(warehouse=_warehouses(_XML_CHAR))
    def test_projected_plans_group_as_full_row_plans(self, warehouse):
        """For every standard query the model holds and both engines: the
        same cube, the same four checks and, for qbs, the same
        double-counting cube as a plan over full rows.  The transform
        refuses exactly the warehouses holding a value spelled like a
        label, and those are compared under qbs alone."""
        warehouse = _writable(warehouse)
        with tempfile.TemporaryDirectory() as out:
            raw, ped = os.path.join(out, "raw"), os.path.join(out, "ped")
            write_warehouse(warehouse, raw)
            engines = [("qbs", raw)]
            if _spelled_like_label(warehouse):
                with pytest.raises(DocumentError, match="spelled like a label"):
                    transform_warehouse(raw, ped)
            else:
                transform_warehouse(raw, ped)
                engines.append(("pedersen", ped))
            for query in standard_workload():
                try:
                    validate_query(query, warehouse.model)
                except QueryError:
                    continue
                for engine, in_dir in engines:
                    projected = plan_query(query, in_dir, engine)
                    full = _full_row_plan(projected, in_dir)
                    cube, _ = run_query(query, in_dir, plan=projected)
                    full_cube, _ = run_query(query, in_dir, plan=full)
                    assert cubes_match(cube, full_cube)[0], (query.id, engine)
                    assert check_correctness(cube, projected) == check_correctness(full_cube,
                                                                                   full)
                    if engine == "qbs":
                        assert cubes_match(double_counting_cube(projected),
                                           double_counting_cube(full))[0], query.id


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

    def test_dangling_reference_in_the_last_sale_is_refused(self, dangling_dir):
        """plan_query's range check, which every path that groups facts goes
        through, names the reference, and the naive cell records it."""
        for query_path in (plan_query, run_query):
            with pytest.raises(ReferentialError, match="'date#99999'"):
                query_path(get_query("D1"), dangling_dir)
        report = run_cell(DatasetSpec("dangling", 50), dangling_dir, "naive", get_query("D1"),
                          "hash", repeats=1, warmup=0)
        assert "'date#99999'" in report.error
        assert report.row()[REPORT_COLUMNS.index("chk_grand")] == "ERR"

    @pytest.mark.parametrize("repeats, warmup", [(0, 0), (0, 1), (-1, 3), (2.5, 1),
                                                 ("2", 1), (True, 1)])
    def test_no_timed_run_is_recorded_as_configuration_error(self, reference_dir,
                                                             repeats, warmup):
        """A repeats that is not an integer of at least 1 is refused in the
        matrix's words, a bool too, and never faults."""
        report = run_cell(DatasetSpec("ref", 1), reference_dir, "qbs", get_query("D1"),
                          "hash", repeats=repeats, warmup=warmup)
        assert report.error == f"repeats must be an integer of at least 1, got {repeats!r}"
        assert report.row()[REPORT_COLUMNS.index("chk_grand")] == "ERR"

    @pytest.mark.parametrize("repeats", [1, 3])
    def test_negative_warmup_is_recorded_as_configuration_error(self, reference_dir,
                                                                repeats):
        """A warmup that is not an integer of at least 0 (negative, a
        fraction, a string or a bool) neither faults (one repeat) nor
        silently times fewer runs than asked (three)."""
        for warmup in (-1, 2.5, "2", True):
            report = run_cell(DatasetSpec("ref", 1), reference_dir, "qbs", get_query("D1"),
                              "hash", repeats=repeats, warmup=warmup)
            assert report.error == f"warmup must be an integer of at least 0, got {warmup!r}"
            assert report.query_ms is None


class TestEnsureDataset:
    def _fresh(self, tmp_path, spec):
        """The six documents a fresh generation of `spec` writes."""
        out = str(tmp_path / "fresh")
        generate_warehouse(spec.config(out))
        return self._documents(out)

    def _documents(self, out_dir):
        return {name: pathlib.Path(out_dir, name).read_bytes() for name in DATASET_FILES}

    def test_new_seed_under_the_same_id_regenerates(self, tmp_path):
        root = str(tmp_path / "data")
        ensure_dataset(DatasetSpec("d", 50, seed=1), root)
        spec = DatasetSpec("d", 50, seed=2)
        out_dir = ensure_dataset(spec, root)
        assert self._documents(out_dir) == self._fresh(tmp_path, spec)

    def test_more_facts_under_the_same_id_regenerates(self, tmp_path):
        root = str(tmp_path / "data")
        ensure_dataset(DatasetSpec("d", 50, seed=1), root)
        out_dir = ensure_dataset(DatasetSpec("d", 80, seed=1), root)
        assert len(xmlio.load_facts(out_dir, xmlio.read_metadata(out_dir), ())) == 80

    def test_stampless_layout_is_regenerated(self, tmp_path):
        """A layout written by the generator alone carries no stamp, so an
        emptied document in it is never benchmarked."""
        root = str(tmp_path / "data")
        spec = DatasetSpec("d", 50, seed=1)
        out_dir = os.path.join(root, spec.id)
        generate_warehouse(spec.config(out_dir))
        open(os.path.join(out_dir, "d_date.xml"), "w").close()
        assert ensure_dataset(spec, root) == out_dir
        assert self._documents(out_dir) == self._fresh(tmp_path, spec)

    def test_matching_layout_is_reused(self, tmp_path):
        root = str(tmp_path / "data")
        spec = DatasetSpec("d", 50, seed=1)
        out_dir = ensure_dataset(spec, root)
        with open(os.path.join(out_dir, "f_sale.xml"), "a", encoding="utf-8") as fh:
            fh.write("<!-- kept -->")
        assert ensure_dataset(spec, root) == out_dir
        assert self._documents(out_dir)["f_sale.xml"].endswith(b"<!-- kept -->")
        assert os.listdir(root) == [spec.id]

    def test_failed_regeneration_is_redone_in_place(self, tmp_path, monkeypatch):
        """A regeneration that fails partway leaves no stamp, so the next
        call generates the dataset again, in place: nothing but `<id>` is
        ever left in data_root."""
        root = str(tmp_path / "data")
        ensure_dataset(DatasetSpec("d", 50, seed=1), root)
        spec = DatasetSpec("d", 30, seed=2)
        real_write_dimension = xmlio.write_dimension

        def full_at_date(schema, instances, out_dir):
            if schema.id == "date":
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_write_dimension(schema, instances, out_dir)

        with monkeypatch.context() as patch:
            patch.setattr(xmlio, "write_dimension", full_at_date)
            with pytest.raises(OSError):
                ensure_dataset(spec, root)
        assert os.listdir(root) == [spec.id]
        out_dir = ensure_dataset(spec, root)
        assert self._documents(out_dir) == self._fresh(tmp_path, spec)
        assert os.listdir(root) == [spec.id]

    @pytest.mark.parametrize("dataset_id", ["", ".", "..", "a/b"])
    def test_id_must_name_one_directory(self, tmp_path, dataset_id):
        """The id names the directory that a regeneration replaces."""
        (tmp_path / "data").mkdir()
        with pytest.raises(ConfigurationError):
            ensure_dataset(DatasetSpec(dataset_id, 10), str(tmp_path / "data"))
        assert os.listdir(tmp_path) == ["data"]


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

    def test_rows_survive_a_campaign_that_stops(self, tmp_path, monkeypatch):
        """Each row is on disk as its cell ends, before the next cell runs."""
        real_run_cell, calls = harness.run_cell, []

        def failing_third(*args, **kwargs):
            calls.append(args)
            if len(calls) == 3:
                raise RuntimeError("stopped")
            return real_run_cell(*args, **kwargs)

        monkeypatch.setattr(harness, "run_cell", failing_third)
        matrix = {"datasets": [{"id": "tiny", "facts": 20, "seed": 9}],
                  "engines": ["qbs"], "queries": ["D1", "D2", "D3", "D4"],
                  "repeats": 1, "warmup": 0}
        report_path = tmp_path / "campaign.csv"
        with pytest.raises(RuntimeError, match="stopped"):
            run_campaign(matrix, str(report_path), data_root=str(tmp_path / "data"))
        with open(report_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == REPORT_COLUMNS
        assert [row[REPORT_COLUMNS.index("query")] for row in rows[1:]] == ["D1", "D2"]

    def test_unexpected_error_stays_in_its_cell(self, tmp_path, monkeypatch):
        """An exception that is no BenchmarkError is recorded, with its type,
        in its cell's row, and the next cell still runs."""
        from xwbench import harness

        real_run_query = harness.run_query

        def failing_d1(query, *args, **kwargs):
            if query.id == "D1":
                raise RuntimeError("boom")
            return real_run_query(query, *args, **kwargs)

        monkeypatch.setattr(harness, "run_query", failing_d1)
        matrix = {"datasets": [{"id": "tiny", "facts": 20, "seed": 9}],
                  "engines": ["qbs"], "queries": ["D1", "D2"],
                  "repeats": 1, "warmup": 0}
        report_path = tmp_path / "campaign.csv"
        reports = run_campaign(matrix, str(report_path), data_root=str(tmp_path / "data"))
        assert [r.query for r in reports] == ["D1", "D2"]
        assert reports[0].error.startswith("RuntimeError: boom")
        assert reports[1].error is None and reports[1].checks_passed
        with open(report_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["query"], row["chk_grand"]) for row in rows] == [
            ("D1", "ERR"), ("D2", "1")]

    def test_interrupt_leaves_its_cell(self, reference_dir, monkeypatch):
        from xwbench import harness

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(harness, "run_query", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_cell(DatasetSpec("ref", 1), reference_dir, "qbs", get_query("D1"),
                     "hash", repeats=1, warmup=0)

    def test_unreadable_dataset_fails_only_its_pedersen_rows(self, tmp_path):
        """A dataset the transform cannot read records the error in its
        pedersen rows; its qbs cells and the other dataset still run."""
        data_root = tmp_path / "data"
        bad = DatasetSpec("bad", 20, seed=9)
        part_path = os.path.join(ensure_dataset(bad, str(data_root)), "d_part.xml")
        with open(part_path, "a", encoding="utf-8") as fh:
            fh.write("<junk/>")
        matrix = {"datasets": [{"id": "good", "facts": 20, "seed": 9},
                               dataclasses.asdict(bad)],
                  "engines": ["qbs", "pedersen"], "queries": ["D1"],
                  "repeats": 1, "warmup": 0}
        report_path = tmp_path / "campaign.csv"
        reports = run_campaign(matrix, str(report_path), data_root=str(data_root))
        failed = [(r.dataset, r.engine) for r in reports if r.error is not None]
        assert failed == [("bad", "pedersen")]
        assert part_path in reports[-1].error
        assert all(r.checks_passed for r in reports[:3])
        with open(report_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["dataset"], row["engine"], row["chk_grand"]) for row in rows] == [
            ("good", "qbs", "1"), ("good", "pedersen", "1"),
            ("bad", "qbs", "1"), ("bad", "pedersen", "ERR")]

    def test_transform_os_error_fails_only_its_pedersen_rows(self, tmp_path):
        """A plain file where the transform's output directory belongs is
        recorded in that dataset's pedersen rows; its qbs cells still run."""
        data_root = tmp_path / "data"
        data_root.mkdir()
        (data_root / "tiny-pedersen").write_text("")
        matrix = {"datasets": [{"id": "tiny", "facts": 20, "seed": 9}],
                  "engines": ["qbs", "pedersen"], "queries": ["D1", "D2"],
                  "repeats": 1, "warmup": 0}
        reports = run_campaign(matrix, str(tmp_path / "campaign.csv"),
                               data_root=str(data_root))
        assert [(r.engine, r.query, r.checks_passed) for r in reports
                if r.error is None] == [("qbs", "D1", True), ("qbs", "D2", True)]
        assert [r.error for r in reports if r.engine == "pedersen"] == [
            f"[Errno 17] File exists: '{data_root / 'tiny-pedersen'}'"] * 2

    def test_transform_stamps_fail_only_their_pedersen_rows(self, tmp_path, monkeypatch):
        """Each dataset's transform is stamped as a transform of its data; a
        stamp that cannot be written fails that dataset's pedersen rows
        alone, and those rows, with no transform measured, leave the
        overhead empty."""
        data_root = tmp_path / "data"
        write_stamp = harness._write_stamp

        def failing_for_b(out_dir, cfg, transformed):
            if transformed and cfg.seed == 8:
                raise OSError("no room for the stamp")
            write_stamp(out_dir, cfg, transformed)

        monkeypatch.setattr(harness, "_write_stamp", failing_for_b)
        matrix = {"datasets": [{"id": "a", "facts": 20, "seed": 9},
                               {"id": "b", "facts": 20, "seed": 8}],
                  "engines": ["qbs", "pedersen"], "queries": ["D1"],
                  "repeats": 1, "warmup": 0}
        reports = run_campaign(matrix, str(tmp_path / "campaign.csv"),
                               data_root=str(data_root))
        assert [(r.dataset, r.engine, r.error) for r in reports] == [
            ("a", "qbs", None), ("a", "pedersen", None),
            ("b", "qbs", None), ("b", "pedersen", "no room for the stamp")]
        assert [r.overhead_ms for r in reports[::2]] == [0.0, 0.0]
        assert reports[1].overhead_ms > 0 and reports[3].overhead_ms is None
        assert harness.read_stamp(str(data_root / "a-pedersen")) == (
            DatasetSpec("a", 20, seed=9).config(None), True)
        assert harness.read_stamp(str(data_root / "b-pedersen")) is None

    def test_matrix_loads_from_json(self, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({"datasets": [{"id": "x", "facts": 10}]}))
        assert load_matrix(str(path))["datasets"][0]["facts"] == 10
