"""Generator: selection scheme, the three complexification steps, regimes."""

import filecmp
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (FOUR_ROW_SUPPLIER, all_instances, assert_reads_back, instance_kind,
                      make_instance)
from xwbench.errors import ConfigurationError, EligibilityError
from xwbench.generator import (
    GeneratorConfig,
    gen_complex,
    gen_incomplete,
    gen_nonstrict,
    generate_warehouse,
    select_targets,
    stratified_count,
)
from xwbench.model import NATION_REGION, PART_TYPE1, PART_TYPE2, PART_TYPE3, HierarchyKind
from xwbench.rng import SplitMix64
from xwbench.xmlio import layout_files


class ScriptedRng:
    """Plays back a fixed flip script (unit-testing the removal loops)."""

    def __init__(self, flips):
        self.flips = list(flips)

    def flip(self):
        return bool(self.flips.pop(0))


class TestConfig:
    @pytest.mark.parametrize("ic,ns,expected", [
        (0, 0, HierarchyKind.SIMPLE),
        (50, 0, HierarchyKind.INCOMPLETE),
        (0, 50, HierarchyKind.NONSTRICT),
        (5, 50, HierarchyKind.COMPLEX),
    ])
    def test_regimes(self, ic, ns, expected):
        cfg = GeneratorConfig(100, incomplete_percentage=ic, nonstrict_percentage=ns,
                              nonstrict_number=2)
        assert cfg.regime is expected

    @pytest.mark.parametrize("kwargs", [
        dict(fact_number=-1),
        dict(fact_number=1, incomplete_percentage=101),
        dict(fact_number=1, nonstrict_percentage=-5),
        dict(fact_number=1, nonstrict_percentage=50, nonstrict_number=1),
        dict(fact_number=1, nonstrict_percentage=50, nonstrict_number=0),
        dict(fact_number=1, seed=1 << 64),
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            GeneratorConfig(**kwargs).validate()

    @pytest.mark.parametrize("name", ["fact_number", "incomplete_percentage",
                                      "nonstrict_percentage", "nonstrict_number", "seed"])
    @pytest.mark.parametrize("value", [True, 2.0, "2"], ids=["bool", "float", "text"])
    def test_numbers_must_be_integers(self, name, value):
        """Each of the five numbers is an int, never a bool, a float or text."""
        with pytest.raises(ConfigurationError, match=f"{name} must be an integer"):
            GeneratorConfig(**{"fact_number": 4, name: value}).validate()


class TestSelectTargets:
    def test_half_of_forty_is_twenty_one_per_block(self):
        targets = select_targets(40, 50, SplitMix64(1))
        assert len(targets) == 20
        for block in range(20):
            assert len(targets & {2 * block, 2 * block + 1}) == 1

    def test_zero_percent_selects_nothing(self):
        assert select_targets(40, 0, SplitMix64(1)) == set()

    def test_hundred_percent_selects_everything(self):
        assert select_targets(10, 100, SplitMix64(1)) == set(range(10))

    def test_partial_trailing_block_is_skipped(self):
        targets = select_targets(41, 50, SplitMix64(1))
        assert len(targets) == 20
        assert 40 not in targets

    @settings(max_examples=100, deadline=None)
    @given(total=st.integers(min_value=0, max_value=400),
           percentage=st.sampled_from([1, 2, 4, 5, 10, 20, 25, 50, 100]),
           seed=st.integers(min_value=0, max_value=2**32))
    def test_divisor_percentages_select_exact_floor(self, total, percentage, seed):
        targets = select_targets(total, percentage, SplitMix64(seed))
        assert len(targets) == total * percentage // 100
        assert len(targets) == stratified_count(total, percentage)
        block = round(100 / percentage)
        for index in targets:
            assert 0 <= index < total
        # one pick per full block
        blocks = {index // block for index in targets}
        assert len(blocks) == len(targets)


def fresh_part(rng_seed=0):
    rng = SplitMix64(rng_seed)
    return make_instance("part", [{
        "type3": rng.choice(PART_TYPE3),
        "type2": rng.choice(PART_TYPE2),
        "type1": rng.choice(PART_TYPE1),
    }])


class TestGenIncomplete:
    def test_scripted_single_removal(self):
        inst = make_instance("part", [{"type3": "LARGE", "type2": "ANODIZED",
                                       "type1": "TIN"}])
        out = gen_incomplete(inst, ScriptedRng([1, 0, 0]))
        assert out.rows[0] == {"type2": "ANODIZED", "type1": "TIN"}

    def test_single_level_instance_loses_it(self):
        inst = make_instance("part", [{"type1": "TIN"}])
        out = gen_incomplete(inst, SplitMix64(0))
        assert out.rows[0] == {}

    def test_only_removals_never_mutations(self):
        rng = SplitMix64(9)
        for _ in range(200):
            inst = fresh_part(rng.next_u64() % 1000)
            out = gen_incomplete(inst, rng)
            assert len(out.rows) == len(inst.rows)
            before = inst.rows[0]
            after = out.rows[0]
            assert set(after) < set(before)
            assert all(before[level] == value for level, value in after.items())

    def test_rejects_instance_with_nothing_to_remove(self):
        with pytest.raises(ValueError):
            gen_incomplete(make_instance("part", [{}]), SplitMix64(0))

    def test_removal_count_follows_truncated_binomial(self):
        """Monte-Carlo frequencies vs the analytic distribution.

        One pass removes each of the 3 levels with p=1/2 and retries until
        something dropped, so P(k removed) = C(3,k) / (2^3 - 1).
        """
        trials = 10_000
        expected = {k: comb(3, k) / 7 for k in (1, 2, 3)}
        rng = SplitMix64(2024)
        counts = {1: 0, 2: 0, 3: 0}
        template = make_instance(
            "part", [{"type3": "LARGE", "type2": "ANODIZED", "type1": "TIN"}])
        for _ in range(trials):
            out = gen_incomplete(template, rng)
            counts[3 - len(out.rows[0])] += 1
        for k, probability in expected.items():
            assert counts[k] / trials == pytest.approx(probability, abs=0.02)


class TestGenNonstrict:
    def test_four_row_array(self, model):
        inst = make_instance("supplier", [{"nation": "FRANCE", "region": "EUROPE"}])
        out = gen_nonstrict(4, inst, model.dimension("supplier"), SplitMix64(3))
        assert len(out.rows) == 4
        assert all(set(row) == {"nation", "region"} for row in out.rows)

    def test_two_rows_is_the_minimum(self, model):
        inst = make_instance("part", [{"type3": "LARGE", "type2": "ANODIZED",
                                       "type1": "TIN"}])
        out = gen_nonstrict(2, inst, model.dimension("part"), SplitMix64(3))
        assert len(out.rows) == 2
        with pytest.raises(ValueError):
            gen_nonstrict(1, inst, model.dimension("part"), SplitMix64(3))

    def test_regions_always_match_their_nation(self, model):
        """Every generated row's region is the one NATION_REGION gives its nation."""
        rng = SplitMix64(17)
        inst = make_instance("supplier", [{"nation": "FRANCE", "region": "EUROPE"}])
        schema = model.dimension("supplier")
        for _ in range(1000):
            out = gen_nonstrict(2, inst, schema, rng)
            for row in out.rows:
                assert row["region"] == NATION_REGION[row["nation"]]

    def test_ineligible_dimensions_refuse(self, model):
        date_inst = make_instance("date", [{"day": "1998-06-25", "month": "1998-06",
                                            "year": "1998"}])
        with pytest.raises(EligibilityError):
            gen_nonstrict(2, date_inst, model.dimension("date"), SplitMix64(0))
        customer = make_instance("customer", [{"nation": "FRANCE", "region": "EUROPE"}])
        with pytest.raises(EligibilityError):
            gen_nonstrict(2, customer, model.dimension("customer"), SplitMix64(0))


class TestGenComplex:
    def test_scripted_both_rows_selected(self):
        inst = make_instance("supplier", [
            {"nation": "FRANCE", "region": "EUROPE"},
            {"nation": "INDIA", "region": "ASIA"},
        ])
        # select row 0, remove its region; select row 1, remove its nation
        script = [1, 0, 1] + [1, 1, 0]
        out = gen_complex(inst, ScriptedRng(script))
        assert out.rows[0] == {"nation": "FRANCE"}
        assert out.rows[1] == {"region": "ASIA"}

    def test_row_count_preserved_and_untouched_rows_unchanged(self, model):
        rng = SplitMix64(5)
        inst = make_instance("supplier", FOUR_ROW_SUPPLIER)
        for _ in range(200):
            out = gen_complex(inst, rng)
            assert len(out.rows) == 4
            changed = 0
            for before, after in zip(inst.rows, out.rows):
                if before != after:
                    changed += 1
                    assert set(after) < set(before)
                else:
                    assert after == before
            assert changed >= 1

    def test_always_classifies_complex(self, model):
        """Classifier oracle over a generated corpus."""
        rng = SplitMix64(6)
        schema = model.dimension("supplier")
        base = make_instance("supplier", [{"nation": "FRANCE", "region": "EUROPE"}])
        for _ in range(1000):
            ns = gen_nonstrict(2 + rng.below(3), base, schema, rng)
            out = gen_complex(ns, rng)
            assert instance_kind(out, schema) is HierarchyKind.COMPLEX

    def test_rejects_single_row_input(self):
        inst = make_instance("supplier", [{"nation": "FRANCE", "region": "EUROPE"}])
        with pytest.raises(ValueError):
            gen_complex(inst, SplitMix64(0))


class TestGenerateWarehouse:
    def test_instance_arithmetic(self, tmp_path):
        warehouse = generate_warehouse(GeneratorConfig(10, seed=1))
        assert len(warehouse.facts) == 10
        assert sum(len(v) for v in warehouse.instances.values()) == 40

    def test_empty_warehouse_is_valid(self, tmp_path):
        out = tmp_path / "empty"
        warehouse = generate_warehouse(GeneratorConfig(0, seed=1, output_dir=str(out)))
        assert warehouse.facts == []
        assert all(v == [] for v in warehouse.instances.values())
        assert_reads_back(str(out), warehouse)

    def test_determinism_bytewise(self, tmp_path):
        cfg = dict(fact_number=200, incomplete_percentage=50, nonstrict_percentage=50,
                   nonstrict_number=4, seed=42)
        a, b = tmp_path / "a", tmp_path / "b"
        wa = generate_warehouse(GeneratorConfig(**cfg, output_dir=str(a)))
        generate_warehouse(GeneratorConfig(**cfg, output_dir=str(b)))
        for name in layout_files(wa.model):
            assert filecmp.cmp(str(a / name), str(b / name), shallow=False), name

    def test_equal_date_values_are_one_object(self):
        """Each drawn calendar day's level values are built once per
        generation, and every row is still a dict of its own."""
        warehouse = generate_warehouse(GeneratorConfig(3000, seed=8))
        rows = [row for inst in warehouse.instances["date"] for row in inst.rows]
        first = {}
        for row in rows:
            drawn = first.setdefault(row["day"], row)
            assert all(row[level] is drawn[level] for level in ("day", "month", "year"))
        assert len(first) < len(rows)
        assert len({id(row) for row in rows}) == len(rows)
        second = generate_warehouse(GeneratorConfig(3000, seed=8))
        assert second.instances["date"] == warehouse.instances["date"]
        assert second.instances["date"][0].rows[0]["year"] is not rows[0]["year"]

    def test_measures_in_range(self):
        warehouse = generate_warehouse(GeneratorConfig(500, seed=8))
        for fact in warehouse.facts:
            assert 1 <= fact.f_quantity <= 100
            # Whole cents, a whole price per unit, in [1.00, 100.00].
            assert isinstance(fact.f_totalamount, int)
            price_cents, rest = divmod(fact.f_totalamount, fact.f_quantity)
            assert rest == 0 and 100 <= price_cents <= 10000

    def test_part_values_stay_in_vocabulary(self):
        vocabulary = {"type3": PART_TYPE3, "type2": PART_TYPE2, "type1": PART_TYPE1}
        warehouse = generate_warehouse(GeneratorConfig(
            300, incomplete_percentage=50, nonstrict_percentage=50,
            nonstrict_number=4, seed=11))
        for inst in warehouse.instances["part"]:
            for row in inst.rows:
                for level, value in row.items():
                    assert value in vocabulary[level]

    def test_incompleteness_only_removes_values(self):
        base = generate_warehouse(GeneratorConfig(300, seed=13))
        holey = generate_warehouse(GeneratorConfig(300, incomplete_percentage=50,
                                                   seed=13))
        for dim in base.instances:
            for before, after in zip(base.instances[dim], holey.instances[dim]):
                assert len(after.rows) == 1
                assert set(after.rows[0]) <= set(before.rows[0])
                for level, value in after.rows[0].items():
                    assert before.rows[0][level] == value

    def test_regime_purity_selection_logs(self):
        n = 300
        simple = generate_warehouse(GeneratorConfig(n, seed=21))
        assert all(instance_kind(i, s) is HierarchyKind.SIMPLE
                   for s, i in all_instances(simple))

        holey = generate_warehouse(GeneratorConfig(n, incomplete_percentage=50, seed=21))
        marked = holey.generation.incomplete_ids
        assert len(marked) == 4 * n // 2
        for schema, inst in all_instances(holey):
            kind = instance_kind(inst, schema)
            assert len(inst.rows) == 1
            assert (kind is HierarchyKind.INCOMPLETE) == (inst.instance_id in marked)

        multi = generate_warehouse(GeneratorConfig(n, nonstrict_percentage=50,
                                                   nonstrict_number=4, seed=21))
        marked = multi.generation.nonstrict_ids
        assert len(marked) == 2 * n // 2
        for schema, inst in all_instances(multi):
            kind = instance_kind(inst, schema)
            assert not inst.has_absent_cell(schema)
            assert (kind is HierarchyKind.NONSTRICT) == (inst.instance_id in marked)

    def test_complex_regime_selected_instances_are_complex(self, complex_300):
        _, _, warehouse = complex_300
        ns = warehouse.generation.nonstrict_ids
        ic = warehouse.generation.incomplete_ids
        assert ns and ic
        # equal percentages make incompleteness demand cover every
        # non-strict instance, so all of them end up complex
        assert ns <= ic
        for schema, inst in all_instances(warehouse):
            kind = instance_kind(inst, schema)
            if inst.instance_id in ns & ic:
                assert kind is HierarchyKind.COMPLEX
            elif inst.instance_id in ic:
                assert kind is HierarchyKind.INCOMPLETE
            else:
                assert kind is HierarchyKind.SIMPLE

    def test_nonstrict_row_counts_bounded(self, complex_300):
        spec, _, warehouse = complex_300
        k = spec.nonstrict_number
        for schema, inst in all_instances(warehouse):
            if inst.instance_id in warehouse.generation.nonstrict_ids:
                assert 2 <= len(inst.rows) <= k
            else:
                assert len(inst.rows) == 1

    def test_customer_is_never_nonstrict(self):
        warehouse = generate_warehouse(GeneratorConfig(
            100, nonstrict_percentage=100, nonstrict_number=2, seed=3))
        assert all(len(i.rows) == 1 for i in warehouse.instances["customer"])
