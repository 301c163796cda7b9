"""Query-time resolution: component semantics and group keys."""

import copy
import pickle

from conftest import COMPLEX_SUPPLIER, FOUR_ROW_SUPPLIER, make_instance
from xwbench.engine_qbs import (
    OTHER,
    component_label,
    label_component,
    resolve_column,
)
from xwbench.model import F_QUANTITY
from xwbench.workload import Query, plan_query


class TestResolveComponent:
    def test_multi_nation_array_fuses(self):
        inst = make_instance("supplier", FOUR_ROW_SUPPLIER)
        assert resolve_column([inst], [1], "nation") == [frozenset({"FRANCE", "GERMANY"})]

    def test_rows_agreeing_at_level_collapse_to_atomic(self):
        inst = make_instance("supplier", FOUR_ROW_SUPPLIER)
        assert resolve_column([inst], [1], "region") == ["EUROPE"]

    def test_missing_level_goes_to_other(self):
        inst = make_instance("part", [{"type2": "ANODIZED", "type1": "TIN"}])
        assert resolve_column([inst], [1], "type3") == [OTHER]

    def test_single_row_present_value_is_atomic(self):
        inst = make_instance("customer", [{"nation": "UNITED STATES",
                                           "region": "AMERICA"}])
        assert resolve_column([inst], [1], "region") == ["AMERICA"]

    def test_mixed_present_and_absent_rows_fuse_with_placeholder(self):
        # matches what covering-then-fusing produces on the same instance
        inst = make_instance("supplier", COMPLEX_SUPPLIER)
        assert resolve_column([inst], [1], "nation") == [
            frozenset({"FRANCE", "GERMANY", "INDIA", OTHER})]

    def test_instance_granularity(self):
        inst = make_instance("supplier", FOUR_ROW_SUPPLIER, ordinal=9)
        assert resolve_column([inst], [1], None) == ["supplier#9"]

    def test_column_holds_one_component_per_ordinal(self):
        index = [make_instance("supplier", FOUR_ROW_SUPPLIER, 1),
                 make_instance("supplier", [{"region": "ASIA"}], 2),
                 make_instance("supplier", [{"nation": "INDIA", "region": "ASIA"}], 3)]
        assert resolve_column(index, [3, 1, 2, 3], "nation") == [
            "INDIA", frozenset({"FRANCE", "GERMANY"}), OTHER, "INDIA"]
        assert resolve_column(index, [2, 1], None) == ["supplier#2", "supplier#1"]


class TestResolveGroup:
    """A fact's group key, as every engine path computes it: plan_query's keys."""

    @staticmethod
    def key(reference_dir, grouping):
        plan = plan_query(Query("X", "SUM", (F_QUANTITY,), grouping), reference_dir)
        assert len(plan.facts) == 1
        (key,) = plan.keys()
        return key

    def test_reference_fact_under_avg_grouping(self, reference_dir):
        grouping = (("supplier", "region"), ("part", "type1"),
                    ("customer", "region"), ("date", "year"))
        key = self.key(reference_dir, grouping)
        assert key == ("EUROPE", "TIN", "AMERICA", "1998")

    def test_empty_grouping_is_the_unit_key(self, reference_dir):
        assert self.key(reference_dir, ()) == ()


class TestLabels:
    def test_component_labels(self):
        assert component_label("FRANCE") == "FRANCE"
        assert component_label(frozenset({"GERMANY", "FRANCE"})) == "FRANCE+GERMANY"
        assert component_label(OTHER) == "Other"

    def test_label_components_invert(self):
        assert label_component("FRANCE") == "FRANCE"
        assert label_component("FRANCE+GERMANY") == frozenset({"FRANCE", "GERMANY"})
        assert label_component("Other") is OTHER
        assert label_component("EUROPE+Other") == frozenset({"EUROPE", OTHER})

    def test_other_survives_copies_and_pickling(self):
        """OTHER is compared by identity, so every copy of a key must keep
        the one object."""
        key = ("FRANCE", OTHER, frozenset({"A", "B"}))
        for copied in (copy.copy(OTHER), copy.deepcopy(OTHER),
                       pickle.loads(pickle.dumps(OTHER))):
            assert copied is OTHER
        assert copy.deepcopy(key)[1] is OTHER
        assert pickle.loads(pickle.dumps(key)) == key

    def test_fused_equality_is_set_equality(self):
        assert frozenset({"A", "B"}) == frozenset({"B", "A"})
        assert component_label(frozenset({"B", "A"})) == component_label(
            frozenset({"A", "B"}))
