#!/usr/bin/env python3
"""gsrel benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a gsrel checkout.  The program under test is imported
from ``src/``; nothing is installed.  One closed-loop client on one thread:
each unit of work starts only after the previous one ended, and each unit
runs in a fresh worker interpreter (``worker.py``) with a fixed hash seed,
so its set-up, memory and layout do not carry over from the last unit.

Workloads (the seed defaults to 11, where the reports are pinned):

  catalog-seed11   gsrel taxonomy --seed N --format structured
                   (full catalog, sizes 0,1,2, all six variants)
  finite-sizes013  gsrel taxonomy --semiring bool --variant M --variant Md
                   --sizes 0,1,3 --seed N --format structured
  diagram-eval-eq  a seeded batch of gsrel eval / gsrel eq queries over
                   generated nat and nonneg-rational interpretations

With ``--trace 0`` units repeat until the next one would most likely end
past ``--seconds`` (at least two), and the end-to-end metrics are printed.
Times are in reference-host seconds: the workers scale what they measure by
the host's speed of the moment (``hostspeed.py``), and the unscaled medians
are printed beside the result.
With ``--trace 1`` the run is one untraced unit and one traced unit, and the
per-layer metrics are printed.  Every output is checked; the last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Metric names and units come from BENCHMARK.json; see
README.md for their meaning.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import diagram_gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 11
# String hashes set dict and set layout; every worker gets the same seed so
# that layout does not vary from unit to unit or from run to run.
HASH_SEED = "0"
SETUP_PROBES = 9
MIN_UNITS = 2
WORKER_TIMEOUT_S = 170
CATALOG = ("bool", "nat", "nonneg-rational", "fuzzy-max-min", "fuzzy-max-times", "gf(2)")
TAXONOMY = {
    "catalog-seed11": (["taxonomy", "--format", "structured"], CATALOG),
    "finite-sizes013": (
        ["taxonomy", "--semiring", "bool", "--variant", "M", "--variant", "Md",
         "--sizes", "0,1,3", "--format", "structured"],
        ("bool",),
    ),
}
WORKLOADS = (*TAXONOMY, "diagram-eval-eq")


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Run:
    """One benchmark run: its scratch directory, workers and failures."""

    def __init__(self, workload: str, seed: int, work: str):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self._spawned = 0
        if workload in TAXONOMY:
            self.argv, semirings = TAXONOMY[workload]
            self.inputs = {"semirings": list(semirings)}
            pin = checks.load_pins().get(workload)
            self.pin = pin if pin is not None and pin["seed"] == seed else None
            self.first = None
        else:
            self.queries = diagram_gen.generate(seed, work)
            self.inputs = {
                "interps": sorted({q["interp"] for q in self.queries}),
                "terms": [path for q in self.queries for path in q["terms"]],
            }

    def spawn(self, argvs: list, trace_dir: str | None = None) -> dict:
        """Run one worker to completion and return its result."""
        self._spawned += 1
        spec_path = os.path.join(self.work, f"worker{self._spawned}.json")
        result_path = os.path.join(self.work, f"worker{self._spawned}.result.json")
        spec = {
            "root": ROOT,
            "inputs": self.inputs,
            "argvs": argvs,
            "trace_dir": trace_dir,
            "result": result_path,
        }
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        spec["spawned_at"] = monotonic()
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh)

    def record(self, what: str, reason: str | None) -> None:
        """Count one attempted operation; a reason marks it failed."""
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.reasons.append(f"{what}: {reason}")

    def unit(self, index: int, trace_dir: str | None = None) -> dict:
        """One taxonomy call, or one pass over the query batch, checked."""
        if self.workload in TAXONOMY:
            out = os.path.join(self.work, f"report{index}.jsonl")
            argv = self.argv + ["--seed", str(self.seed), "--out", out]
            result = self.spawn([argv], trace_dir)
            call = result["calls"][0]
            data = _read(out)
            reason = call["error"] or (
                "no report" if data is None else
                checks.check_report(call["rc"], data, self.pin, self.first)
            )
            self.record(f"unit {index}", reason)
            if self.first is None and reason is None:
                self.first = data
            rows = len(data.splitlines()) if data else 0
            return dict(result, latencies_ms=[call["ms"]], rows=rows, outputs=[data])
        for q in self.queries:
            if os.path.exists(q["out"]):
                os.remove(q["out"])
        result = self.spawn([q["argv"] for q in self.queries], trace_dir)
        outputs = []
        for q, call in zip(self.queries, result["calls"]):
            data = _read(q["out"])
            outputs.append(data)
            reason = call["error"] or checks.check_query(q, call["rc"], data)
            self.record(f"unit {index} query {q['id']}", reason)
        latencies = [call["ms"] for call in result["calls"]]
        return dict(result, latencies_ms=latencies, rows=len(self.queries), outputs=outputs)


def _read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def tail_percentile(values: list) -> tuple[float, int]:
    """The highest whole percentile (nearest rank) with at least ten values
    above its rank, and that percentile; the maximum (100) when there are
    fewer than eleven values."""
    ordered = sorted(values)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return ordered[rank - 1], p
    return ordered[-1], 100


def end_to_end(run: Run, seconds: float) -> tuple[dict, list]:
    setups = [run.spawn([]) for _ in range(SETUP_PROBES + 1)][1:]
    units = []
    start = monotonic()
    while True:
        began = monotonic()
        units.append(run.unit(len(units)))
        took = monotonic() - began
        # Stop when the next unit would most likely end past the time.
        if len(units) >= MIN_UNITS and monotonic() - start + took / 2 > seconds:
            break
    # A query's latency is the median over the units, which repeat the batch.
    latencies = [statistics.median(ms) for ms in zip(*(u["latencies_ms"] for u in units))]
    tail, pct = tail_percentile(latencies)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": statistics.median(u["wall_s"] for u in units),
        "law_rows_per_s": statistics.median(u["rows"] / u["wall_s"] for u in units),
        "queries_per_s": len(latencies) / (sum(latencies) / 1000.0),
        "query_p50_ms": statistics.median(latencies),
        "query_tail_ms": tail,
        "peak_rss_mb": max(u["peak_rss_mb"] for u in units),
    }
    notes = [
        f"units: {len(units)}; queries: {len(latencies)}, each run {len(units)} times; "
        f"setup probes: {len(setups)}",
        f"query_tail_ms is p{pct} of {len(latencies)} queries",
        f"unscaled medians: setup_s {statistics.median(s['raw_setup_s'] for s in setups):.4f}, "
        f"wall_s {statistics.median(u['raw_wall_s'] for u in units):.4f}",
        "unit wall_s: " + " ".join(f"{u['wall_s']:.3f}" for u in units),
    ]
    return metrics, notes


def per_layer(run: Run, names: list) -> tuple[dict, list]:
    """The declared per-layer metrics of one traced unit.  A name
    ``<span>.calls``/``.constructed``/``.s`` reads the span's count or self
    time, ``taxonomy.<family>.rows``/``.cases`` reads the report."""
    trace_dir = os.path.join(ROOT, ".perfbench", "trace", run.workload)
    plain = run.unit(0)
    traced = run.unit(1, trace_dir)
    same = plain["outputs"] == traced["outputs"]
    run.record("traced outputs", None if same else "traced outputs differ from untraced ones")
    summary = traced["trace"]
    built = summary["built_inside"]
    returned = summary["sample_maps_returned"]
    distinct = summary["distinct_inputs"]
    special = {
        "semiring.add_ops": summary["semiring_add_ops"],
        "semiring.mul_ops": summary["semiring_mul_ops"],
        "weightmap.sample_maps.built": built,
        "weightmap.sample_maps.returned": returned,
        "weightmap.sample_maps.yield": returned / built if built else 0.0,
        "weightmap.sample_maps.distinct_inputs": distinct.get("weightmap.sample_maps", 0),
        "wrel.variant_arrows.distinct_inputs": distinct.get("wrel.variant_arrows", 0),
        "diagram.entries_compared": summary["entries_compared"],
        "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
        "trace.spans": summary["span_count"],
        "error_rate": run.failed / run.attempted,
    }
    families = {}
    if run.workload in TAXONOMY and traced["outputs"][0] is not None:
        families = checks.family_counts(checks.report_rows(traced["outputs"][0]))
    metrics = {}
    for name in names:
        base, _, field = name.rpartition(".")
        if name in special:
            metrics[name] = special[name]
        elif field in ("rows", "cases"):
            rows, cases = families.get(base.removeprefix("taxonomy."), (0, 0))
            metrics[name] = rows if field == "rows" else cases
        elif field == "s":
            metrics[name] = summary["spans"][base]["self_s"]
        else:
            metrics[name] = summary["spans"][base]["calls"]
    notes = [
        f"untraced wall_s {plain['wall_s']:.4f}, traced wall_s {traced['wall_s']:.4f}",
        f"spans written to {os.path.relpath(trace_dir, ROOT)}",
    ]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gsrel", "cli.py")):
        print(f"error: no gsrel sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    names = [m["name"] for m in declared]

    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench")) as work:
        run = Run(args.workload, args.seed, work)
        if args.trace:
            metrics, notes = per_layer(run, names)
        else:
            metrics, notes = end_to_end(run, args.seconds)
            notes.append(f"error_rate {run.failed}/{run.attempted}")

    if sorted(names) != sorted(metrics):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    for m in declared:
        print(f"{m['name']:<44} {metrics[m['name']]!s:>22} {m['unit']}")
    for line in notes + run.reasons:
        print(line)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
