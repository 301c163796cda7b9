"""Which comparison sees which fault.

Each fault is swapped in with monkeypatch: a wrong resolver for
engine_qbs.resolve_column, the one resolver that both engines group by, a
wrong loader for xmlio.load_dimensions, or a wrong matcher for
ResultCube.entry_for.  D1-D4 and Q22-Q24 then run on both engines over a
complex warehouse and over its transform.  qbs is compared with pedersen,
as a campaign could, and with the oracle, which reads the documents itself
and calls none of the swapped functions; and qbs's cube goes through
check_correctness, the four flags a campaign's rows carry.  A transformed
instance is one row, so only a fault that picks the wrong instance fools
both engines alike, and only the oracle sees it.  The flags recount by the
run's own keys: they see a fault in matching, never one in resolution or
loading.
"""

import pytest

from xwbench import engine_qbs, harness, xmlio
from xwbench.engine_pedersen import transform_warehouse
from xwbench.engine_qbs import OTHER
from xwbench.generator import GeneratorConfig, generate_warehouse
from xwbench.model import DimensionInstance
from xwbench.workload import ResultCube, get_query, plan_query, run_query

QUERIES = ("D1", "D2", "D3", "D4", "Q22", "Q23", "Q24")

correct = engine_qbs.resolve_column
load_dimensions = xmlio.load_dimensions
entry_for = ResultCube.entry_for


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


def sparse_shift(index, ordinals, level):
    """An instance whose ordinal is 7 mod 97 resolves through the next one,
    so a sampled audit has to say what its stride misses."""
    return correct(index, [o % len(index) + 1 if o % 97 == 7 else o for o in ordinals], level)


def last_row_dropped(in_dir, model, keep):
    """Each multi-row instance loads without its last row."""
    return {dim_id: [DimensionInstance(inst.instance_id, inst.rows[:-1])
                     if len(inst.rows) > 1 else inst for inst in index]
            for dim_id, index in load_dimensions(in_dir, model, keep).items()}


def misrouting(cube, key):
    """Once per cube, a fact of a group that already has an entry goes to
    the first other group's entry."""
    if key in cube.entries and not vars(cube).get("misrouted"):
        other = next((k for k in cube.entries if k != key), None)
        if other is not None:
            cube.misrouted = True
            return cube.entries[other]
    return entry_for(cube, key)


@pytest.fixture(scope="module")
def warehouse(tmp_path_factory):
    """The directories of 1,000 complex50 facts (k=4, seed 3) and of their
    transform, and per query its qbs plan, its pedersen plan and the
    oracle's cube."""
    root = tmp_path_factory.mktemp("check-power")
    raw, ped = str(root / "raw"), str(root / "ped")
    generate_warehouse(GeneratorConfig(1000, 50, 50, 4, seed=3, output_dir=raw))
    transform_warehouse(raw, ped)
    return raw, ped, [(plan_query(get_query(qid), raw),
                       plan_query(get_query(qid), ped, "pedersen"),
                       harness.oracle_cube(raw, get_query(qid))) for qid in QUERIES]


ALL, NONE = list(QUERIES), []


@pytest.mark.parametrize("owner, name, fault, vs_pedersen, vs_oracle, flagged", [
    (engine_qbs, "resolve_column", correct, NONE, NONE, NONE),
    (engine_qbs, "resolve_column", least_member, ALL[1:], ALL[1:], NONE),
    (engine_qbs, "resolve_column", first_row_only, ALL[1:], ALL[1:], NONE),
    (engine_qbs, "resolve_column", other_as_empty, ALL, ALL, NONE),
    (engine_qbs, "resolve_column", other_dropped_from_fused_sets, ALL[1:], ALL[1:], NONE),
    (engine_qbs, "resolve_column", shifted_ordinal, NONE, ALL, NONE),
    (engine_qbs, "resolve_column", sparse_shift, NONE, ALL, NONE),
    (xmlio, "load_dimensions", last_row_dropped, ALL[1:], ALL[1:], NONE),
    (ResultCube, "entry_for", misrouting, NONE, ALL, ALL),
], ids=["correct", "least_member", "first_row_only", "other_as_empty",
        "other_dropped_from_fused_sets", "shifted_ordinal", "sparse_shift",
        "last_row_dropped", "misrouting"])
def test_each_wrong_resolver_is_seen(warehouse, monkeypatch, owner, name, fault, vs_pedersen,
                                     vs_oracle, flagged):
    """The queries on which qbs differs from pedersen, on which it differs
    from the oracle, and on which check_correctness fails a flag of qbs's
    cube.  Without a fault, none.  Every wrong resolver or loader makes qbs
    differ from the oracle, and from pedersen unless it picks the wrong
    instance, while the flags pass them all.  The wrong matcher misroutes
    both engines alike, so only the oracle and the flags see it.  D1 groups
    date alone, whose instances are one row each.  The pedersen comparison,
    spelled as perfbench's gate spells it, gives the same verdicts."""
    raw, ped, cells = warehouse
    monkeypatch.setattr(owner, name, fault)
    seen = {"pedersen": [], "oracle": [], "flags": []}
    for qbs_plan, ped_plan, oracle in cells:
        query = qbs_plan.query
        if owner is xmlio:  # the module's plans were loaded before the fault
            qbs_plan, ped_plan = plan_query(query, raw), plan_query(query, ped, "pedersen")
        qbs, _ = run_query(query, "", plan=qbs_plan)
        pedersen, _ = run_query(query, "", plan=ped_plan)
        equal, _ = harness.cubes_match(qbs, pedersen)
        gate_equal, _ = harness.cubes_match(qbs, harness.qbs_view_of_pedersen(pedersen))
        assert gate_equal == equal, query.id
        for comparison, differs in (("pedersen", not equal),
                                    ("oracle", not harness.cubes_match(qbs, oracle)[0]),
                                    ("flags", not harness.check_correctness(qbs, qbs_plan).passed)):
            if differs:
                seen[comparison].append(query.id)
    assert seen == {"pedersen": vs_pedersen, "oracle": vs_oracle, "flags": flagged}
