"""The hooks perfbench's tracer installs: every name it patches still exists,
a traced cell counts what it should, and uninstalling restores the program."""

import importlib.util
import os

from xwbench import engine_pedersen, engine_qbs, generator, harness, workload, xmlio

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_a_scan_cell_and_restores_every_hook(complex_300):
    spec, out_dir, warehouse = complex_300
    owners = (engine_pedersen, engine_qbs, generator, harness, workload, xmlio,
              workload.ResultCube)
    before = {owner: dict(vars(owner)) for owner in owners}
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        assert harness.run_cell is not before[harness]["run_cell"]
        query = workload.get_query("D2")
        report = harness.run_cell(spec, out_dir, "qbs", query, workload.MATCH_SCAN,
                                  repeats=1, warmup=0)
    finally:
        tracer.uninstall()
    assert report.error is None and report.checks_passed
    assert tracer.counts["scan_comparisons"] > 0
    assert tracer.counts["instances_loaded"] == sum(
        len(warehouse.instances[dim_id]) for dim_id in query.grouped_dimensions)
    for owner in owners:
        after = vars(owner)
        assert all(after[name] is value for name, value in before[owner].items()), owner
