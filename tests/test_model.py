"""Schema fixture, the generator's vocabularies, and instance classification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datetime import timedelta

from conftest import COMPLEX_SUPPLIER, FOUR_ROW_SUPPLIER, make_instance
from xwbench.errors import StructuralError
from xwbench.model import (
    DATE_FIRST,
    DATE_LAST,
    NATION_REGION,
    NATIONS,
    NONSTRICT_DIMENSIONS,
    PART_TYPE1,
    PART_TYPE2,
    PART_TYPE3,
    REGIONS,
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
        assert set(NONSTRICT_DIMENSIONS) == {"part", "supplier"}
        assert set(NONSTRICT_DIMENSIONS) <= set(model.dimension_ids)


class TestValuePools:
    def test_part_vocabularies(self):
        assert set(PART_TYPE3) == {
            "ECONOMY", "LARGE", "STANDARD", "PROMO", "MEDIUM", "SMALL"}
        assert set(PART_TYPE2) == {
            "ANODIZED", "BURNISHED", "BRUSHED", "POLISHED", "PLATED"}
        assert set(PART_TYPE1) == {"COPPER", "NICKEL", "STEEL", "TIN", "BRASS"}

    def test_nation_region_function_is_total_and_single_valued(self):
        assert len(NATIONS) == 25
        assert len(REGIONS) == 5
        assert NATIONS == tuple(NATION_REGION)
        for nation in NATIONS:
            assert NATION_REGION[nation] in REGIONS
        assert set(NATION_REGION.values()) == set(REGIONS)
        assert NATION_REGION["FRANCE"] == "EUROPE"
        assert NATION_REGION["UNITED STATES"] == "AMERICA"
        assert NATION_REGION["INDIA"] == "ASIA"

    def test_date_range_and_levels(self):
        assert (DATE_LAST - DATE_FIRST).days + 1 == 2557
        assert DATE_FIRST.isoformat() == "1992-01-01"
        assert DATE_LAST.isoformat() == "1998-12-31"
        assert date_levels(DATE_FIRST + timedelta(days=2367)) == {
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
            row["nation"] = draw(st.sampled_from(NATIONS))
        if draw(st.booleans()):
            row["region"] = draw(st.sampled_from(REGIONS))
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
