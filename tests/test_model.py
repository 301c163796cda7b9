"""Schema fixture, value pools, and instance classification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import COMPLEX_SUPPLIER, FOUR_ROW_SUPPLIER, make_instance
from xwbench.errors import StructuralError
from xwbench.model import (
    DEFAULT_POOLS,
    NATION_REGION,
    HierarchyKind,
    classify_instance,
    date_levels,
    default_model,
)


class TestDefaultModel:
    def test_shape(self, model):
        assert model.fact_id == "sale"
        assert model.fact_path == "f_sale.xml"
        assert model.dimension_ids == ("part", "customer", "supplier", "date")
        assert model.measures == ("f_quantity", "f_totalamount")

    def test_level_chains(self, model):
        assert model.dimension("part").levels == ("type3", "type2", "type1")
        assert model.dimension("customer").levels == ("nation", "region")
        assert model.dimension("supplier").levels == ("nation", "region")
        assert model.dimensions[3].levels == ("day", "month", "year")

    def test_document_paths(self, model):
        assert [s.path for s in model.dimensions] == [
            "d_part.xml", "d_customer.xml", "d_supplier.xml", "d_date.xml"]

    def test_nonstrict_eligibility(self, model):
        eligible = {s.id for s in model.dimensions if s.nonstrict_eligible}
        assert eligible == {"part", "supplier"}


class TestValuePools:
    def test_part_vocabularies(self):
        assert set(DEFAULT_POOLS.type3) == {
            "ECONOMY", "LARGE", "STANDARD", "PROMO", "MEDIUM", "SMALL"}
        assert set(DEFAULT_POOLS.type2) == {
            "ANODIZED", "BURNISHED", "BRUSHED", "POLISHED", "PLATED"}
        assert set(DEFAULT_POOLS.type1) == {"COPPER", "NICKEL", "STEEL", "TIN", "BRASS"}

    def test_nation_region_function_is_total_and_single_valued(self):
        assert len(DEFAULT_POOLS.nations) == 25
        assert len(DEFAULT_POOLS.regions) == 5
        for nation in DEFAULT_POOLS.nations:
            assert DEFAULT_POOLS.region_of(nation) in DEFAULT_POOLS.regions
        # deterministic: repeated lookups agree
        assert [DEFAULT_POOLS.region_of(n) for n in DEFAULT_POOLS.nations] == \
               [NATION_REGION[n] for n in DEFAULT_POOLS.nations]
        assert DEFAULT_POOLS.region_of("FRANCE") == "EUROPE"
        assert DEFAULT_POOLS.region_of("UNITED STATES") == "AMERICA"
        assert DEFAULT_POOLS.region_of("INDIA") == "ASIA"

    def test_date_range_and_levels(self):
        assert DEFAULT_POOLS.day_count == 2557
        assert DEFAULT_POOLS.day(0).isoformat() == "1992-01-01"
        assert DEFAULT_POOLS.day(2556).isoformat() == "1998-12-31"
        assert date_levels(DEFAULT_POOLS.day(2367)) == {
            "day": "1998-06-25", "month": "1998-06", "year": "1998"}


class TestClassify:
    @pytest.mark.parametrize("multi, absent, kind", [
        (False, False, HierarchyKind.SIMPLE),
        (False, True, HierarchyKind.INCOMPLETE),
        (True, False, HierarchyKind.NONSTRICT),
        (True, True, HierarchyKind.COMPLEX),
    ])
    def test_regime_rule(self, multi, absent, kind):
        """The one rule instances, generator configs and layouts are classified by."""
        assert HierarchyKind.of(multi, absent) is kind

    def test_single_complete_row_is_simple(self, model):
        inst = make_instance("supplier", [{"nation": "FRANCE", "region": "EUROPE"}])
        assert classify_instance(inst, model.dimension("supplier")) is HierarchyKind.SIMPLE

    def test_removed_level_is_incomplete(self, model):
        inst = make_instance("part", [{"type2": "ANODIZED", "type1": "TIN"}])
        assert classify_instance(inst, model.dimension("part")) is HierarchyKind.INCOMPLETE

    def test_multi_row_complete_is_nonstrict(self, model):
        inst = make_instance("supplier", FOUR_ROW_SUPPLIER)
        assert classify_instance(inst, model.dimension("supplier")) is HierarchyKind.NONSTRICT

    def test_multi_row_with_deletions_is_complex(self, model):
        inst = make_instance("supplier", COMPLEX_SUPPLIER)
        assert classify_instance(inst, model.dimension("supplier")) is HierarchyKind.COMPLEX

    def test_fully_absent_single_row_is_incomplete(self, model):
        # the anonymous customer: reference intact, no values at all
        inst = make_instance("customer", [{}])
        assert classify_instance(inst, model.dimension("customer")) is HierarchyKind.INCOMPLETE

    def test_undeclared_level_is_structural_error(self, model):
        inst = make_instance("date", [{"hour": "12"}])
        with pytest.raises(StructuralError):
            classify_instance(inst, model.dimension("date"))


@st.composite
def supplier_instances(draw):
    """Arbitrary (possibly holey, possibly multi-row) supplier instances."""
    n_rows = draw(st.integers(min_value=1, max_value=4))
    rows = []
    for _ in range(n_rows):
        row = {}
        if draw(st.booleans()):
            row["nation"] = draw(st.sampled_from(DEFAULT_POOLS.nations))
        if draw(st.booleans()):
            row["region"] = draw(st.sampled_from(DEFAULT_POOLS.regions))
        rows.append(row)
    return make_instance("supplier", rows)


@settings(max_examples=200, deadline=None)
@given(supplier_instances())
def test_classification_partitions(inst):
    """Exactly one kind per instance, consistent with its row structure."""
    schema = default_model().dimension("supplier")
    kind = classify_instance(inst, schema)
    multi = len(inst.rows) > 1
    absent = any(len(row) < 2 for row in inst.rows)
    expected = {
        (False, False): HierarchyKind.SIMPLE,
        (False, True): HierarchyKind.INCOMPLETE,
        (True, False): HierarchyKind.NONSTRICT,
        (True, True): HierarchyKind.COMPLEX,
    }[(multi, absent)]
    assert kind is expected
