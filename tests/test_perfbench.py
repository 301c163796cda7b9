"""perfbench against the program: every name its tracer patches or its
runner reads still exists, a traced cell counts what it should,
uninstalling restores the program, and a small run of the benchmark itself
is correct."""

import ast
import dataclasses
import importlib.util
import os
import sys

from xwbench import engine_pedersen, engine_qbs, generator, harness, workload, xmlio

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  os.path.join(PERFBENCH, "spans.py"))
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


def test_every_name_the_runner_reads_exists():
    """Each attribute that perfbench/run.py reads off a program module, by
    the module's name or as `self.<module>`, exists: deleting one fails
    here, not only as a benchmark run that fails."""
    modules = {module.__name__.rpartition(".")[2]: module for module in
               (engine_pedersen, engine_qbs, generator, harness, workload, xmlio)}
    with open(os.path.join(PERFBENCH, "run.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = node.value
            if (isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name)
                    and owner.value.id == "self"):
                owner = owner.attr
            elif isinstance(owner, ast.Name):
                owner = owner.id
            if owner in modules:
                read.add((owner, node.attr))
    assert {("harness", "cubes_match"), ("harness", "qbs_view_of_pedersen"),
            ("harness", "oracle_cube"), ("harness", "run_cell"), ("harness", "DatasetSpec"),
            ("xmlio", "document_sizes"), ("workload", "get_query"),
            ("workload", "run_query")} <= read
    assert [f"{owner}.{name}" for owner, name in sorted(read)
            if not hasattr(modules[owner], name)] == []


def small_bench(monkeypatch, tmp_path, trace: bool):
    """perfbench/run.py as it stands, with its complex-hash workload cut to
    200 facts and one pass (two under tracing: untraced, then traced)."""
    monkeypatch.setitem(sys.modules, "spans", load_spans())
    # run.py's dataclasses look their module up in sys.modules as it loads.
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  os.path.join(PERFBENCH, "run.py"))
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "perfbench_run", run)
    spec.loader.exec_module(run)
    # import_program puts src/ on sys.path; monkeypatch restores sys.path.
    monkeypatch.syspath_prepend(run.SRC)
    run.WORKLOADS["complex-200"] = dataclasses.replace(run.WORKLOADS["complex-hash"],
                                                       facts=200)
    return run.Bench(run.import_program(), "complex-200", 42, seconds=0, trace=trace,
                     work=str(tmp_path))


def test_benchmark_runs_a_small_complex_workload_correctly(monkeypatch, tmp_path):
    """One untimed pass of every complex-hash cell over 200 facts, with the
    benchmark's cross-checks."""
    bench = small_bench(monkeypatch, tmp_path, trace=False)
    result, _ = bench.run()
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(bench.cells) == 16


def test_traced_benchmark_counts_every_resolution(monkeypatch, tmp_path):
    """A traced pass reads its resolution counts off the qbs cubes' keys and
    supports: 200 facts times the 26 dimensions the eight queries group.
    Its cells load every instance and row of each grouped dimension, also
    when the rows hold the grouped level alone."""
    bench = small_bench(monkeypatch, tmp_path, trace=True)
    result, _ = bench.run()
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["engine_qbs.resolve_calls"]["value"] == 5200
    data = bench.passes[-1]["data"]
    instances = {engine: xmlio.read_warehouse(data[engine]).instances
                 for engine in ("qbs", "pedersen")}
    grouped = [instances[engine][dim_id] for query_id, engine in bench.cells
               for dim_id in workload.get_query(query_id).grouped_dimensions]
    assert metrics["xmlio.instances_loaded"]["value"] == sum(map(len, grouped))
    assert metrics["xmlio.rows_loaded"]["value"] == sum(len(inst.rows) for index in grouped
                                                        for inst in index)
