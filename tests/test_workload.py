"""Workload definition, cube building, matching strategies, query runs."""

import dataclasses
import hashlib
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xwbench.engine_pedersen import transform_warehouse
from xwbench.engine_qbs import OTHER, component_label
from xwbench.errors import ConfigurationError, QueryError
from xwbench.generator import GeneratorConfig, generate_warehouse
from xwbench.harness import cubes_match, double_counting_cube
from xwbench.model import F_QUANTITY, F_TOTALAMOUNT
from xwbench.workload import (
    MATCH_HASH,
    MATCH_SCAN,
    STANDARD_WORKLOAD,
    Entry,
    Query,
    ResultCube,
    aggregate_step,
    get_query,
    load_workload,
    plan_query,
    run_query,
    standard_workload,
    validate_query,
)


class TestStandardWorkload:
    def test_readme_shows_the_standard_workload(self):
        """README's Workload section opens with the built-in queries as the
        code holds them."""
        readme = pathlib.Path(__file__).parents[1].joinpath("README.md").read_text("utf-8")
        section = readme.split("\n## Workload\n")[1].split("\n## ")[0]
        assert section.split("```\n")[1] == STANDARD_WORKLOAD

    def test_eight_queries(self):
        queries = standard_workload()
        assert [q.id for q in queries] == ["Q21", "Q22", "Q23", "Q24",
                                           "D1", "D2", "D3", "D4"]

    def test_q21_groups_every_dimension_at_instance_level(self):
        q21 = get_query("Q21")
        assert q21.aggregate == "SUM"
        assert q21.measures == (F_QUANTITY, F_TOTALAMOUNT)
        assert q21.grouping == (("part", None), ("customer", None),
                                ("supplier", None), ("date", None))

    def test_q22_shape(self):
        q22 = get_query("Q22")
        assert q22.aggregate == "MIN"
        assert q22.measures == (F_QUANTITY,)
        assert q22.grouping == (("customer", "nation"), ("part", "type3"),
                                ("supplier", "nation"), ("date", "day"))

    def test_q23_q24_shapes(self):
        q23 = get_query("Q23")
        assert (q23.aggregate, q23.measures) == ("MAX", (F_TOTALAMOUNT,))
        assert q23.grouping == (("date", "month"), ("part", "type2"),
                                ("supplier", "nation"), ("customer", "region"))
        q24 = get_query("Q24")
        assert (q24.aggregate, q24.measures) == ("AVG", (F_TOTALAMOUNT,))
        assert q24.grouping == (("supplier", "region"), ("part", "type1"),
                                ("customer", "region"), ("date", "year"))

    def test_dimensional_ladder(self):
        assert get_query("D1").grouping == (("date", "day"),)
        assert get_query("D2").grouping == (("part", "type3"), ("date", "day"))
        assert get_query("D3").grouping == (("part", "type3"),
                                            ("customer", "nation"), ("date", "day"))
        assert get_query("D4").grouping == (("part", "type3"), ("customer", "nation"),
                                            ("supplier", "nation"), ("date", "day"))

    def test_measure_no_fact_carries_is_refused(self, model):
        """Declared by the metadata, but a fact record does not carry it."""
        declared = dataclasses.replace(model, measures=model.measures + ("margin",))
        with pytest.raises(QueryError, match="unknown measure 'margin'"):
            validate_query(Query("X", "SUM", ("margin",), ()), declared)


class TestWorkloadFile:
    def test_round_trips_through_text(self, tmp_path):
        path = tmp_path / "extra.workload"
        path.write_text(
            "# custom cubes\n"
            "X1 SUM f_quantity,f_totalamount date.day,part.type3\n"
            "X2 avg f_totalamount supplier.region\n"
            "X3 MAX f_totalamount -\n"
            "X4 SUM f_quantity part\n"
        )
        queries = load_workload(str(path))
        assert [q.id for q in queries] == ["X1", "X2", "X3", "X4"]
        assert queries[0].grouping == (("date", "day"), ("part", "type3"))
        assert queries[1].aggregate == "AVG"
        assert queries[2].grouping == ()
        assert queries[3].grouping == (("part", None),)


class TestAggregateStep:
    def test_min_is_the_least_value(self):
        entry = Entry("MIN", 1)
        for v in (100, 40, 73):
            aggregate_step(entry, (v,), "MIN")
        assert entry.values("MIN") == (40,)

    def test_max_is_the_highest_value(self):
        entry = Entry("MAX", 1)
        for v in (100, 40, 73):
            aggregate_step(entry, (v,), "MAX")
        assert entry.values("MAX") == (100,)

    def test_avg_is_total_over_count(self):
        """AVG keeps SUM's running sum; the count is the entry's support."""
        entry = Entry("AVG", 1)
        aggregate_step(entry, (10,), "AVG")
        aggregate_step(entry, (20,), "AVG")
        assert entry.states == [30]
        assert entry.support == 2
        assert entry.values("AVG") == (15.0,)

    def test_sum_matches_independent_summation(self):
        from xwbench.rng import SplitMix64

        rng = SplitMix64(31)
        quantities = [1 + rng.below(100) for _ in range(1000)]
        entry = Entry("SUM", 1)
        for q in quantities:
            aggregate_step(entry, (q,), "SUM")
        assert entry.values("SUM") == (sum(quantities),)


def random_keys(count, seed):
    from xwbench.rng import SplitMix64

    rng = SplitMix64(seed)
    nations = ("FRANCE", "GERMANY", "INDIA", "CHINA", "PERU")
    keys = []
    for _ in range(count):
        kind = rng.below(3)
        if kind == 0:
            first = nations[rng.below(5)]
        elif kind == 1:
            first = frozenset(rng.sample(nations, 2 + rng.below(2)))
        else:
            first = OTHER
        keys.append((first, str(rng.below(12))))
    return keys


class TestMatching:
    def test_insert_then_match_returns_same_entry(self):
        query = get_query("D1")
        for strategy in ("scan", "hash"):
            cube = ResultCube(query, strategy)
            entry = cube.entry_for(("1998-06-25",))
            again = cube.entry_for(("1998-06-25",))
            assert entry is again

    def test_fused_member_order_never_splits_groups(self):
        query = get_query("D1")
        for strategy in ("scan", "hash"):
            cube = ResultCube(query, strategy)
            a = cube.entry_for((frozenset({"A", "B"}),))
            b = cube.entry_for((frozenset({"B", "A"}),))
            assert a is b

    def test_scan_and_hash_build_identical_cubes(self):
        """10,000 random keys through both strategies, equal cube contents."""
        query = get_query("D1")
        keys = random_keys(10_000, seed=77)
        cubes = {}
        for strategy in ("scan", "hash"):
            cube = ResultCube(query, strategy)
            for key in keys:
                aggregate_step(cube.entry_for(key), (1, 0.5), "SUM")
            cubes[strategy] = cube
        equal, diffs = cubes_match(cubes["scan"], cubes["hash"])
        assert equal, diffs

    def test_strategy_mismatch_is_rejected(self):
        with pytest.raises(QueryError):
            ResultCube(get_query("D1"), "sorted")


class TestRunQuery:
    def test_single_reference_fact_q21(self, reference_dir):
        plan = plan_query(get_query("Q21"), reference_dir)
        cube, timing = run_query(plan.query, reference_dir, plan=plan)
        assert cube.fact_count == 1
        assert len(cube.entries) == 1
        ((key, entry),) = cube.entries.items()
        assert key == ("part#1", "customer#1", "supplier#1", "date#1")
        assert entry.values("SUM") == (100, 280000)
        assert entry.support == 1
        phases = (timing.resolve_ms, timing.match_ms, timing.agg_ms)
        assert all(phase >= 0 for phase in phases) and plan.read_ms > 0
        assert sum(phases) <= timing.query_ms

    def test_empty_warehouse_yields_empty_cube(self, tmp_path):
        out = tmp_path / "empty"
        generate_warehouse(GeneratorConfig(0, seed=1, output_dir=str(out)))
        for query in standard_workload():
            cube, _ = run_query(query, str(out))
            assert cube.fact_count == 0
            assert cube.entries == {}
            assert cube.grand_totals == [0] * len(query.measures)

    def test_grand_total_and_support_conservation(self, complex_300):
        """run_query's supports add up to its fact count, and its SUM groups
        to its grand totals; it and the double-counting control both count
        every fact once and total every measure over all facts."""
        _, out_dir, warehouse = complex_300
        expected = {F_QUANTITY: sum(f.f_quantity for f in warehouse.facts),
                    F_TOTALAMOUNT: sum(f.f_totalamount for f in warehouse.facts)}
        for query in standard_workload():
            plan = plan_query(query, out_dir)
            cube, _ = run_query(query, out_dir, plan=plan)
            control = double_counting_cube(plan)
            assert sum(e.support for e in cube.entries.values()) == cube.fact_count
            assert cube.fact_count == control.fact_count == 300
            totals = [expected[measure] for measure in query.measures]
            assert cube.grand_totals == control.grand_totals == totals
            if query.aggregate == "SUM":
                for i, measure in enumerate(query.measures):
                    assert sum(e.states[i] for e in cube.entries.values()) == \
                           cube.grand_totals[i] == expected[measure]

    def test_group_counts_grow_with_dimensions(self, complex_300):
        _, out_dir, _ = complex_300
        counts = [len(run_query(get_query(f"D{n}"), out_dir)[0].entries)
                  for n in (1, 2, 3, 4)]
        assert counts == sorted(counts)

    def test_query_time_engine_never_writes(self, complex_300):
        import os

        _, out_dir, _ = complex_300
        before = {name: (os.path.getsize(os.path.join(out_dir, name)),
                         os.path.getmtime(os.path.join(out_dir, name)))
                  for name in os.listdir(out_dir)}
        run_query(get_query("D4"), out_dir, engine="qbs")
        after = {name: (os.path.getsize(os.path.join(out_dir, name)),
                        os.path.getmtime(os.path.join(out_dir, name)))
                 for name in os.listdir(out_dir)}
        assert before == after

    def test_pedersen_resolution_never_fuses(self, complex_300, tmp_path):
        _, src, _ = complex_300
        out = str(tmp_path / "ped")
        transform_warehouse(src, out)
        for query in standard_workload():
            cube, _ = run_query(query, out, engine="pedersen")
            for key in cube.entries:
                assert all(isinstance(c, str) for c in key)

    def test_unknown_level_is_query_error(self, complex_300, tmp_path):
        """A level the grouped dimension lacks is rejected before any fact is
        grouped, on the raw warehouse and on the transformed one alike."""
        _, src, _ = complex_300
        out = str(tmp_path / "ped")
        transform_warehouse(src, out)
        query = Query("X", "SUM", (F_QUANTITY,), (("supplier", "type3"),))
        for in_dir, engine in ((src, "qbs"), (out, "pedersen")):
            with pytest.raises(QueryError, match="'supplier' has no level 'type3'"):
                run_query(query, in_dir, engine=engine)

    def test_unknown_engine_and_instrumented_phases(self, reference_dir):
        with pytest.raises(ConfigurationError):
            run_query(get_query("D1"), reference_dir, engine="turbo")
        plan = plan_query(get_query("D1"), reference_dir)
        cube, timing = run_query(plan.query, reference_dir, plan=plan)
        assert plan.read_ms is not None
        assert timing.match_ms is not None
        assert timing.query_ms >= 0


@settings(max_examples=30, deadline=None)
@given(values=st.lists(st.integers(min_value=1, max_value=100),
                       min_size=1, max_size=60))
def test_sum_min_max_avg_agree_with_builtins(values):
    for aggregate, expected in (("SUM", sum(values)), ("MIN", min(values)),
                                ("MAX", max(values)),
                                ("AVG", sum(values) / len(values))):
        entry = Entry(aggregate, 1)
        for v in values:
            aggregate_step(entry, (v,), aggregate)
        assert entry.values(aggregate)[0] == expected


# sha256 of each standard query's canonical cube over the golden-bytes
# warehouse GeneratorConfig(200, 50, 50, 3, seed=7): qbs over the raw
# documents and pedersen over their transform, under either matching, all
# give the same cube.  The cross-engine and oracle tests only compare cubes
# with each other; these digests tie every cell to fixed keys, supports and
# exact sums (amounts in integer cents).
GOLDEN_CUBES = {
    "Q21": "5f7910f6b1720b7e852aa38e40dce0f140e79375c824465df679a8ba7123c394",
    "Q22": "038b41cefa5779bc44e227b5c1ddc710c61d5eef075c35111f351c3507ec05b9",
    "Q23": "563331abe41be18bc017ad2c9acb065acfaa2f85e908648195834361736c731b",
    "Q24": "20090e0a6a51982d2ced476604f52a60732f11b2632af70eec0fed35997f0abe",
    "D1": "55f19ba5ab1ab3326cb3ffd357595a3a04bd066fd2ae97a244e04f4fecbabda3",
    "D2": "b22296168643afdedd3e056a0ba2a310b0d4b8ab207820aa32421859c4cfb114",
    "D3": "62fa9d8d2b96a5ec9722fd30f1e8ca0f774424f92b873d48fec64511dd976c84",
    "D4": "a4b24373b50ba824de5e2b0607aca3afa4cb09f84a39aea66ae74714e8fcb8d9",
}


def canonical_cube(cube) -> str:
    """A cube's text with keys as component labels (a frozenset's repr order
    depends on the hash seed), entries sorted, measures paired with their
    values as repr."""
    query = cube.query
    entries = sorted(((tuple(component_label(c) for c in key), entry)
                      for key, entry in cube.entries.items()),
                     key=lambda item: item[0])
    lines = [query.id, query.aggregate, repr(list(query.measures)),
             repr(cube.fact_count), repr(sorted(zip(query.measures, cube.grand_totals)))]
    for key, entry in entries:
        lines.append(f"{key!r} {entry.support!r} "
                     f"{sorted(zip(query.measures, entry.values(query.aggregate)))!r}")
    return "\n".join(lines)


@pytest.fixture(scope="module")
def golden_warehouse(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden-cubes")
    raw, ped = str(root / "raw"), str(root / "ped")
    generate_warehouse(GeneratorConfig(200, 50, 50, 3, seed=7, output_dir=raw))
    transform_warehouse(raw, ped)
    return {"qbs": raw, "pedersen": ped}


@pytest.mark.parametrize("matching", [MATCH_HASH, MATCH_SCAN])
@pytest.mark.parametrize("engine", ["qbs", "pedersen"])
def test_cubes_match_golden_digests(golden_warehouse, engine, matching):
    digests = {}
    for query in standard_workload():
        cube, _ = run_query(query, golden_warehouse[engine], engine=engine,
                            matching=matching)
        digests[query.id] = hashlib.sha256(canonical_cube(cube).encode()).hexdigest()
    assert digests == GOLDEN_CUBES
