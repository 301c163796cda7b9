#!/usr/bin/env python3
"""xwbench benchmark: campaign-cell latency on two hierarchy workloads.

    python3 perfbench/run.py --workload complex-hash --seed 42 --seconds 50 --trace 0

One process runs one workload, single-threaded, with the semantics of
`run_campaign(parallel=False)`: generate the warehouse (`setup_s`, repeated
and reported as a median), transform it for the static engine
(`transform_s`, likewise), then run every (query, engine) cell through
`harness.run_cell(..., repeats=1, warmup=0)`, in passes over all cells
until the time is spent.  Each timed step sits between runs of a fixed
stdlib reference workload, and its time is scaled to a machine on which the
reference takes REFERENCE_S, so a slow stretch of a shared machine cancels
out.  `--trace 1` runs the same steps with spans and counters around
each module (see spans.py) and reports the per-layer metrics instead.

Outputs are checked outside the timed region on every run: all four
correctness flags on every cell, qbs against pedersen on every query both
engines run, scan
against hash matching on the scan workload and the brute-force oracle on one
query of the complex workload.  The last stdout line is the JSON result; the
line before it records the environment.  A wrong output exits with code 1,
a missing program with code 2.  Details (every sample and every span) are
written to .perfbench_out/ in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import asdict, dataclass

from spans import Patches, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

ENGINES = ("qbs", "pedersen")
DIMENSIONS = ("part", "customer", "supplier", "date")


@dataclass(frozen=True)
class Workload:
    facts: int
    incomplete: int
    nonstrict: int
    nonstrict_number: int
    queries: tuple[str, ...]       # run on qbs
    pedersen: tuple[str, ...]      # of those, also run on pedersen
    matching: str
    oracle_query: str | None = None


# Why each workload exists is recorded in README.md beside this file.
COMPLEX = ("Q21", "Q22", "Q23", "Q24", "D1", "D2", "D3", "D4")
WORKLOADS = {
    "complex-hash": Workload(1600, 50, 50, 4, COMPLEX, COMPLEX, "hash", oracle_query="D4"),
    # On simple data pedersen cells repeat the qbs work, so one cheap query
    # is enough to report pedersen cell latency here.
    "simple-scan": Workload(8_000, 0, 0, 0, ("D1", "D3", "D4"), ("D1",), "scan"),
}


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import xwbench from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "xwbench", "__init__.py")):
        fail(f"no xwbench package under {SRC}")
    sys.path.insert(0, SRC)
    import xwbench
    from xwbench import engine_pedersen, engine_qbs, generator, harness, workload, xmlio

    if not os.path.abspath(xwbench.__file__).startswith(SRC + os.sep):
        fail(f"imported xwbench from {xwbench.__file__}, not from {SRC}")
    return engine_pedersen, engine_qbs, generator, harness, workload, xmlio


def git_state() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
        if rev.returncode != 0:
            return {"rev": None, "dirty": None}
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                 "--untracked-files=no"], env=env,
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return {"rev": None, "dirty": None}
    return {"rev": rev.stdout.strip(), "dirty": bool(status.stdout.strip())}


def median_ms(seconds: list[float]) -> float:
    return statistics.median(seconds) * 1000.0


class Bench:
    def __init__(self, program: tuple, name: str, seed: int, seconds: float, trace: bool,
                 work: str):
        (self.engine_pedersen, self.engine_qbs, self.generator, self.harness,
         self.workload, self.xmlio) = program
        self.wl = WORKLOADS[name]
        self.seconds = seconds
        self.work = work
        self.spec = self.harness.DatasetSpec(name, self.wl.facts, self.wl.incomplete,
                                             self.wl.nonstrict, self.wl.nonstrict_number, seed)
        self.queries = [self.workload.get_query(q) for q in self.wl.queries]
        self.cells = [(q.id, e) for q in self.queries for e in ENGINES
                      if e == "qbs" or q.id in self.wl.pedersen]
        self.tracer = Tracer() if trace else None
        self.captured = None
        self.failures: set[str] = set()
        self.attempted = 0
        # Samples by step: "setup", "transform" or "<query>/<engine>".
        self.wall: dict[str, list[float]] = {}
        self.scaled: dict[str, list[float]] = {}
        self.passes: list[dict] = []
        self.reference_s: list[float] = []
        self.reference_at = float("-inf")
        self.steps: list[tuple[str, float, float, list[float]]] = []  # label, start, s, references

    # --- steps -----------------------------------------------------------------

    def _sample_reference(self) -> list[float]:
        self.reference_s.extend(reference() for _ in range(REFERENCE_RUNS))
        self.reference_at = time.perf_counter()
        return self.reference_s[-REFERENCE_RUNS:]

    def _timed(self, cell: str, key: str, fn, *args, traced: bool = True, **kwargs):
        """Run one step under the timer, between reference runs, and record
        its wall time and its time scaled to the reference's speed.  The
        runs after one step serve as the runs before the next."""
        gc.collect()
        if time.perf_counter() - self.reference_at > 0.05:
            self._sample_reference()
        before = self.reference_s[-REFERENCE_RUNS:]
        tracer = self.tracer if traced else None
        if tracer:
            tracer.begin(cell)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
        finally:
            if tracer:
                tracer.end()
        references = before + self._sample_reference()
        self.wall.setdefault(key, []).append(dt)
        self.scaled.setdefault(key, []).append(dt * REFERENCE_S / statistics.median(references))
        self.steps.append((cell, t0, dt, references))
        return result, dt

    def prepare(self, prefix: str, traced: bool) -> dict:
        """Generate, then transform, each into a fresh directory."""
        raw = tempfile.mkdtemp(prefix="raw-", dir=self.work)
        warehouse, _ = self._timed(f"{prefix}setup", "setup", self.generator.generate_warehouse,
                                   self.spec.config(raw), traced=traced)
        self.note_sizes(raw)
        ped = tempfile.mkdtemp(prefix="pedersen-", dir=self.work)
        report, dt = self._timed(f"{prefix}transform", "transform",
                                 self.engine_pedersen.transform_warehouse, raw, ped, traced=traced)
        self.note_sizes(ped)
        instances = [i for insts in warehouse.instances.values() for i in insts]
        generated = {"instances": len(instances),
                     "rows": sum(len(i.rows) for i in instances),
                     "nonstrict_instances": len(warehouse.generation.nonstrict_ids),
                     "incomplete_instances": len(warehouse.generation.incomplete_ids)}
        return {"qbs": raw, "pedersen": ped, "generated": generated, "transform": report,
                "overhead_ms": dt * 1000.0}

    def run_pass(self, number: int, traced: bool, keep: dict, deadline: float | None) -> dict:
        """One campaign: before each query a set-up and transform, then the
        query's cells.  The pass's cells run over the first set-up's data;
        the later ones are dropped at once and only add `setup_s` and
        `transform_s` samples spread over the pass as the cells are.

        With a deadline, each step starts only if it should end in time, as
        long as the last run of the same step took; the pass is then marked
        incomplete."""
        harness, engine_qbs, tracer = self.harness, self.engine_qbs, self.tracer
        info = {"number": number, "traced": traced, "complete": False, "data": None,
                "cell_s": 0.0, "reports": [], "cube_counts": Counter(),
                "counts": Counter(), "gc_pause_s": 0.0}

        def fits(seconds: float) -> bool:
            return deadline is None or time.perf_counter() + seconds <= deadline

        for position, query in enumerate(self.queries):
            if not fits(self.wall["setup"][-1] + self.wall["transform"][-1]
                        if "setup" in self.wall else 0.0):
                return info
            data = self.prepare(f"p{number}:prep{position}:", traced)
            if info["data"] is None:
                info["data"] = data
            else:
                for engine in ENGINES:
                    shutil.rmtree(data[engine])
            data = info["data"]
            cubes = {}
            for qid, engine in self.cells:
                if qid != query.id:
                    continue
                key = f"{qid}/{engine}"
                if not fits(self.wall[key][-1] if key in self.wall else 0.0):
                    return info
                cell = f"p{number}:cell:{qid}/{engine}"
                self.captured = None
                counts_before = Counter(tracer.counts) if traced else None
                pause_before = tracer.gc_pause_s if traced else 0.0
                report, dt = self._timed(cell, key, harness.run_cell, self.spec, data[engine],
                                         engine, query, self.wl.matching, repeats=1, warmup=0,
                                         overhead_ms=data["overhead_ms"], traced=traced)
                if traced:
                    info["counts"] += tracer.counts - counts_before
                    info["gc_pause_s"] += tracer.gc_pause_s - pause_before
                cube, self.captured = self.captured, None
                self.attempted += 1
                info["cell_s"] += dt
                info["reports"].append((engine, report))
                if report.error is not None or not report.checks_passed:
                    self.failures.add(cell)
                    continue
                if cube is None:
                    raise RuntimeError("run_cell no longer hands its cube to check_correctness")
                cubes[engine] = cube
            if len(cubes) == 2:
                ok, _ = harness.cubes_match(cubes["qbs"],
                                            harness.qbs_view_of_pedersen(cubes["pedersen"]))
                if not ok:
                    self.failures.add(f"p{number}:cell:{query.id}/pedersen")
            if traced and "qbs" in cubes:
                count_components(info["cube_counts"], cubes["qbs"], engine_qbs.OTHER)
            if "qbs" in cubes and (query.id == self.wl.oracle_query
                                   or self.wl.matching == "scan"):
                keep[query.id] = (f"p{number}:cell:{query.id}/qbs", cubes["qbs"])
        info["complete"] = True
        return info

    def extra_checks(self, raw: str, keep: dict) -> None:
        """Checks that cost a full program run each, made once per run."""
        harness, workload = self.harness, self.workload
        for qid, (cell, cube) in keep.items():
            query = workload.get_query(qid)
            if qid == self.wl.oracle_query:
                ok, _ = harness.cubes_match(harness.oracle_cube(raw, query), cube)
                if not ok:
                    self.failures.add(cell)
            if self.wl.matching == "scan":
                hashed, _ = workload.run_query(query, raw, engine="qbs", matching="hash")
                ok, _ = harness.cubes_match(hashed, cube)
                if not ok:
                    self.failures.add(cell)

    # --- the run ---------------------------------------------------------------

    def warm_up(self) -> None:
        """One untimed set-up and transform: the CPU of a shared machine runs
        slower for a while after it idled, and the first calls pay for
        lazily compiled code paths."""
        raw = tempfile.mkdtemp(prefix="warm-", dir=self.work)
        self.generator.generate_warehouse(self.spec.config(raw))
        self.engine_pedersen.transform_warehouse(raw, raw + "-pedersen")
        shutil.rmtree(raw)
        shutil.rmtree(raw + "-pedersen")

    def run(self) -> tuple[dict, dict]:
        start = time.perf_counter()
        deadline = start + self.seconds
        self.warm_up()
        harness = self.harness
        real_check = harness.check_correctness

        def capturing_check(cube, *args, **kwargs):
            # Keep the cube each run_cell checks, so the cross-checks need
            # no second query run.
            self.captured = cube
            return real_check(cube, *args, **kwargs)

        capture = Patches()
        capture.swap(harness, "check_correctness", capturing_check)
        try:
            keep: dict = {}
            # The first pass, and under --trace 1 the first traced one, run
            # whole; later passes stop at the deadline.
            forced = 2 if self.tracer else 1
            while True:
                number = len(self.passes)
                # Under --trace 1, untraced and traced passes alternate so the
                # tracing overhead is measured inside the same run.
                traced = self.tracer is not None and number % 2 == 1
                with self.tracer if traced else contextlib.nullcontext():
                    info = self.run_pass(number, traced, keep,
                                         None if number < forced else deadline)
                if info["data"] is not None:
                    if self.passes:  # only the last pass's warehouses are kept
                        for engine in ENGINES:
                            shutil.rmtree(self.passes[-1]["data"][engine])
                    self.passes.append(info)
                if not info["complete"] or (len(self.passes) >= forced
                                            and time.perf_counter() >= deadline):
                    break
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            data = self.passes[-1]["data"]
            self.extra_checks(data["qbs"], keep)
            regime_s = None
            if self.tracer:
                with self.tracer:
                    regime, regime_s = self._timed("infer", "infer", harness.infer_regime, data["qbs"])
                if regime != self.spec.regime:
                    self.failures.add("infer")
            sizes = {engine: sum(self.xmlio.document_sizes(data[engine]).values())
                     for engine in ENGINES}
        finally:
            capture.restore()

        if self.tracer:
            metrics = self.layer_metrics(sizes, regime_s)
        else:
            metrics = self.end_to_end(peak_rss_mb)
        result = {"correct": not self.failures, "attempted": self.attempted,
                  "failed": len(self.failures), "metrics": metrics}
        details = {
            "workload": asdict(self.wl), "sizes": sizes, "passes": len(self.passes),
            "wall_s": self.wall, "scaled_s": self.scaled,
            "failures": sorted(self.failures), "elapsed_s": time.perf_counter() - start,
            "reference_s": self.reference_s, "steps": self.steps,
        }
        if self.tracer:
            details["spans"] = [s.record() for s in self.tracer.spans]
        return result, details

    def note_sizes(self, directory: str) -> None:
        if self.tracer:
            for name, size in self.xmlio.document_sizes(directory).items():
                self.tracer.doc_bytes[os.path.join(directory, name)] = size

    # --- metrics ---------------------------------------------------------------

    def end_to_end(self, peak_rss_mb: float) -> dict:
        # Every time is the median of a step's scaled samples.  Cell latency
        # is the mean over an engine's queries of each query's median:
        # queries differ in cost, and a run that stops at its deadline has
        # one more sample of some cells than of others.
        p50 = {key: statistics.median(v) for key, v in self.scaled.items()}
        cells = {e: statistics.mean(v for key, v in p50.items() if key.endswith("/" + e))
                 for e in ENGINES}
        campaign_s = sum(p50.values())
        return {
            "setup_s": metric(p50["setup"], "s"),
            "transform_s": metric(p50["transform"], "s"),
            **{f"{e}_cell_ms": metric(v * 1000.0, "ms") for e, v in cells.items()},
            "campaign_s": metric(campaign_s, "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MiB"),
        }

    def layer_metrics(self, sizes: dict, regime_s: float) -> dict:
        tracer = self.tracer
        traced = [p for p in self.passes if p["traced"] and p["complete"]]
        untraced = [p for p in self.passes if not p["traced"] and p["complete"]]
        first = traced[0]
        prepares = len(self.queries)

        def per_pass(fn, passes=traced) -> float:
            return statistics.median(fn(p) for p in passes)

        def phase_ms(field, engine=None) -> float:
            # The program's own per-fact phases, from untraced passes: in
            # traced ones the scan-comparison counter runs inside its match
            # timer.
            return per_pass(lambda p: sum(getattr(r, field) or 0.0 for e, r in p["reports"]
                                          if engine is None or e == engine), untraced)

        cells = {p["number"]: tracer.totals(f"p{p['number']}:cell:") for p in traced}
        setups = [tracer.totals(f"p{p['number']}:prep{i}:setup")
                  for p in traced for i in range(prepares)]
        transforms = [tracer.totals(f"p{p['number']}:prep{i}:transform")
                      for p in traced for i in range(prepares)]
        generated, transform_report = first["data"]["generated"], first["data"]["transform"]

        def cell_ms(kind: int, key: str) -> float:
            return per_pass(lambda p: cells[p["number"]][kind].get(key, 0.0)) * 1000.0

        def rep_ms(totals, kind: int, key: str) -> float:
            return statistics.median(t[kind].get(key, 0.0) for t in totals) * 1000.0

        busy, own = 0, 1
        ms, count = "ms", "count"
        counts = first["counts"]
        cube_counts = first["cube_counts"]
        overhead = (per_pass(lambda p: p["cell_s"])
                    - per_pass(lambda p: p["cell_s"], untraced)) / len(self.cells)
        load_calls = sum(1 for s in tracer.spans
                         if s.cell and s.cell.startswith(f"p{first['number']}:cell:")
                         and s.name == "xmlio.load_dimensions")
        return {
            "generator.generate_ms": metric(rep_ms(setups, own, "generator.generate_warehouse"), ms),
            **{f"generator.{k}": metric(v, count) for k, v in generated.items()},
            "xmlio.write_ms": metric(rep_ms(setups, busy, "xmlio.write_warehouse"), ms),
            "xmlio.bytes_written": metric(sizes["qbs"], "bytes"),
            "xmlio.load_dimensions_ms": metric(cell_ms(busy, "xmlio.load_dimensions"), ms),
            **{f"xmlio.parse_ms.{d}": metric(cell_ms(busy, f"xmlio.iter_instances.{d}"), ms)
               for d in DIMENSIONS},
            "xmlio.read_ms": metric(phase_ms("read_ms"), ms),
            "xmlio.load_calls": metric(load_calls, count),
            "xmlio.instances_loaded": metric(counts["instances_loaded"], count),
            "xmlio.rows_loaded": metric(counts["rows_loaded"], count),
            "xmlio.bytes_read": metric(counts["bytes_read"], "bytes"),
            "engine_qbs.resolve_ms": metric(phase_ms("resolve_ms", "qbs"), ms),
            "engine_qbs.resolve_calls": metric(cube_counts["resolve_calls"], count),
            "engine_qbs.fused_components": metric(cube_counts["fused"], count),
            "engine_qbs.other_components": metric(cube_counts["other"], count),
            "engine_pedersen.transform_ms": metric(
                rep_ms(transforms, busy, "engine_pedersen.transform_warehouse"), ms),
            "engine_pedersen.cover_ms": metric(rep_ms(transforms, busy, "engine_pedersen.make_covering"), ms),
            "engine_pedersen.fuse_ms": metric(rep_ms(transforms, busy, "engine_pedersen.make_strict"), ms),
            "engine_pedersen.write_ms": metric(rep_ms(transforms, busy, "xmlio.write_dimension"), ms),
            "engine_pedersen.instances_covered": metric(transform_report.instances_covered, count),
            "engine_pedersen.instances_fused": metric(transform_report.instances_fused, count),
            "engine_pedersen.bytes_written": metric(sizes["pedersen"], "bytes"),
            "engine_pedersen.resolve_ms": metric(phase_ms("resolve_ms", "pedersen"), ms),
            "workload.match_ms": metric(phase_ms("match_ms"), ms),
            "workload.scan_comparisons": metric(counts["scan_comparisons"], count),
            "workload.groups": metric(sum(r.groups or 0 for _, r in first["reports"]), count),
            "workload.agg_ms": metric(phase_ms("agg_ms"), ms),
            "workload.self_ms": metric(cell_ms(own, "workload.*"), ms),
            "harness.check_ms": metric(cell_ms(busy, "harness.check_correctness"), ms),
            "harness.run_cell_self_ms": metric(cell_ms(own, "harness.run_cell"), ms),
            "harness.infer_regime_ms": metric(regime_s * 1000.0, ms),
            "harness.self_ms": metric(cell_ms(own, "harness.*"), ms),
            "gc.collections": metric(counts["gc_collections"], count),
            "gc.gen2_collections": metric(counts["gc_gen2_collections"], count),
            "gc.pause_ms": metric(per_pass(lambda p: p["gc_pause_s"]) * 1000.0, ms),
            "trace.overhead_ms": metric(overhead * 1000.0, ms),
        }


# Reference runs before and after each timed step, and the reference's time
# on the machine that timed steps are scaled to.
REFERENCE_RUNS = 3
REFERENCE_S = 0.010
REFERENCE_DOC = "<r>" + "".join(f'<i id="{i}" a="x{i % 97}"><v>{i * 7 % 1000}</v><w>k{i % 13}</w></i>'
                                 for i in range(1000)) + "</r>"


def reference() -> float:
    """Seconds for a fixed stdlib workload shaped like the program's (parse
    an XML document, group its elements in a dict, serialize it again),
    timed around every timed step.  It runs none of the program's code and
    collects no garbage, so the program's heap cannot slow it: it tells how
    fast the machine ran around each step."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        root = ET.fromstring(REFERENCE_DOC)
        groups: dict[str, list] = {}
        for el in root:
            groups.setdefault(el.get("a"), []).append((el.get("id"), int(el[0].text), el[1].text))
        ET.tostring(root)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def count_components(counter: Counter, cube, other) -> None:
    """Resolutions (facts x grouped dimensions) and those that gave a fused
    member set or OTHER, read off the qbs cube's keys."""
    for key, entry in cube.entries.items():
        counter["resolve_calls"] += entry.support * len(key)
        counter["fused"] += entry.support * sum(isinstance(c, frozenset) for c in key)
        counter["other"] += entry.support * sum(c is other for c in key)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    load_at_start = os.getloadavg()
    program = import_program()
    environment = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": load_at_start,
        "gc_threshold": gc.get_threshold(),
        "git": git_state(),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
    }
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        bench = Bench(program, args.workload, args.seed, args.seconds, bool(args.trace), work)
        result, details = bench.run()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    environment.update(config=details["workload"], sizes=details["sizes"], passes=details["passes"],
                       samples={k: len(v) for k, v in details["wall_s"].items()},
                       wall_p50_ms={k: median_ms(v) for k, v in details["wall_s"].items()},
                       reference_ms=median_ms(details["reference_s"]))
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"environment": environment, "result": result, **details}, fh)
    print(json.dumps({"environment": environment}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
