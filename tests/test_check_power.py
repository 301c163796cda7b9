"""Which comparison sees which wrong resolver.

Each resolver below is swapped in for engine_qbs.resolve_column, the one
resolver that both engines group by, and D1-D4 and Q22-Q24 run on both
engines over a complex warehouse and over its transform.  qbs is compared
with pedersen, as a campaign could, and with the oracle, which reads the
documents itself and never calls the swapped resolver.  A transformed
instance is one row, so only a resolver that picks the wrong instance
fools both engines alike, and only the oracle sees it.
"""

import pytest

from xwbench import engine_qbs, harness
from xwbench.engine_pedersen import transform_warehouse
from xwbench.engine_qbs import OTHER
from xwbench.generator import GeneratorConfig, generate_warehouse
from xwbench.workload import get_query, plan_query, run_query

QUERIES = ("D1", "D2", "D3", "D4", "Q22", "Q23", "Q24")

correct = engine_qbs.resolve_column


def least_member(index, ordinals, level):
    """A fused set resolves to its least member."""
    return [min(c, key=str) if isinstance(c, frozenset) else c
            for c in correct(index, ordinals, level)]


def first_row_only(index, ordinals, level):
    """An instance resolves by its first row alone."""
    if level is None:
        return correct(index, ordinals, level)
    return [index[o - 1].rows[0].get(level, OTHER) for o in ordinals]


def other_as_empty(index, ordinals, level):
    """A missing member resolves to the empty string, not OTHER."""
    return ["" if c is OTHER else c for c in correct(index, ordinals, level)]


def other_dropped_from_fused_sets(index, ordinals, level):
    """A fused set loses its OTHER member."""
    column = []
    for c in correct(index, ordinals, level):
        if isinstance(c, frozenset) and OTHER in c:
            members = c - {OTHER}
            c = members if len(members) > 1 else next(iter(members))
        column.append(c)
    return column


def shifted_ordinal(index, ordinals, level):
    """Each fact resolves through the next instance of its dimension."""
    return correct(index, [o % len(index) + 1 for o in ordinals], level)


@pytest.fixture(scope="module")
def cells(tmp_path_factory):
    """Per query: its qbs plan, its pedersen plan and the oracle's cube,
    over 1,000 complex50 facts (k=4, seed 3) and their transform."""
    root = tmp_path_factory.mktemp("check-power")
    raw, ped = str(root / "raw"), str(root / "ped")
    generate_warehouse(GeneratorConfig(1000, 50, 50, 4, seed=3, output_dir=raw))
    transform_warehouse(raw, ped)
    return [(plan_query(get_query(qid), raw), plan_query(get_query(qid), ped, "pedersen"),
             harness.oracle_cube(raw, get_query(qid))) for qid in QUERIES]


@pytest.mark.parametrize("resolver, engines_differ, oracle_differs", [
    (correct, False, False),
    (least_member, True, True),
    (first_row_only, True, True),
    (other_as_empty, True, True),
    (other_dropped_from_fused_sets, True, True),
    (shifted_ordinal, False, True),
], ids=["correct", "least_member", "first_row_only", "other_as_empty",
        "other_dropped_from_fused_sets", "shifted_ordinal"])
def test_each_wrong_resolver_is_seen(cells, monkeypatch, resolver, engines_differ,
                                     oracle_differs):
    """The correct resolver is flagged by no comparison; every wrong one
    makes qbs differ from the oracle on some query, and from pedersen on
    some query unless it picks the wrong instance, which fools both
    engines alike.  The pedersen comparison, spelled as perfbench's gate
    spells it, gives the same verdicts."""
    monkeypatch.setattr(engine_qbs, "resolve_column", resolver)
    vs_pedersen, vs_oracle = [], []
    for qbs_plan, ped_plan, oracle in cells:
        query = qbs_plan.query
        qbs, _ = run_query(query, "", plan=qbs_plan)
        pedersen, _ = run_query(query, "", plan=ped_plan)
        equal, _ = harness.cubes_match(qbs, pedersen)
        gate_equal, _ = harness.cubes_match(qbs, harness.qbs_view_of_pedersen(pedersen))
        assert gate_equal == equal, query.id
        if not equal:
            vs_pedersen.append(query.id)
        if not harness.cubes_match(qbs, oracle)[0]:
            vs_oracle.append(query.id)
    assert bool(vs_pedersen) == engines_differ, vs_pedersen
    assert bool(vs_oracle) == oracle_differs, vs_oracle
