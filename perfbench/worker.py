"""One unit of a workload in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json

The spec names the checkout root, the inputs to load, and the gsrel argv
lists of the unit.  The worker imports ``gsrel.cli`` and loads the inputs
(the set-up), then runs each argv through ``gsrel.cli.main`` in-process,
one after the other, and writes a result JSON: set-up time measured from
the parent's spawn time on the system-wide monotonic clock, each call's
exit code and milliseconds, its own peak RSS, and with tracing on the
tracer's summary.  Times are in reference-host seconds (``hostspeed.py``);
the raw ones are kept beside them.  Linux only: the peak RSS is read from
/proc.
"""
from __future__ import annotations

import json
import os
import sys
import time
import traceback

from hostspeed import HostSpeed


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def load_inputs(inputs: dict) -> None:
    from gsrel.diagram import load_interpretation, parse_term_file
    from gsrel.semiring import load_semiring

    for name in inputs.get("semirings", ()):
        load_semiring(name)
    for path in inputs.get("interps", ()):
        with open(path, encoding="utf-8") as fh:
            load_interpretation(json.load(fh))
    for path in inputs.get("terms", ()):
        with open(path, encoding="utf-8") as fh:
            parse_term_file(fh.read())


def peak_rss_mb() -> float:
    """Peak RSS of this process image (VmHWM).  ru_maxrss is not used: Linux
    carries into it the parent's RSS from before exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_calls(cli, argvs: list, ops_override=None, speed: HostSpeed | None = None) -> dict:
    """Run each argv through cli.main; a raised exception counts as a crash.
    With ``speed``, times are scaled to reference-host seconds."""
    scaled = speed.scaled if speed is not None else (lambda t0, t1: t1 - t0)
    calls = []
    start = monotonic()
    for argv in argvs:
        t0 = monotonic()
        try:
            rc, error = cli.main(argv, _ops_override=ops_override), None
        except Exception:  # a crash is a failed operation, not a harness error
            rc, error = None, traceback.format_exc(limit=3)
        t1 = monotonic()
        calls.append({"rc": rc, "ms": scaled(t0, t1) * 1000.0, "raw_ms": (t1 - t0) * 1000.0,
                      "error": error})
    end = monotonic()
    return {"calls": calls, "wall_s": scaled(start, end), "raw_wall_s": end - start}


def main(spec_path: str) -> int:
    speed = HostSpeed()
    speed.start()
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    import gsrel.cli

    load_inputs(spec["inputs"])
    ready = monotonic()
    result = {
        "setup_s": speed.scaled(spec["spawned_at"], ready),
        "raw_setup_s": ready - spec["spawned_at"],
    }
    if spec["argvs"]:
        tracer = None
        if spec["trace_dir"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        try:
            result.update(run_calls(gsrel.cli, spec["argvs"], speed=speed))
        finally:
            if tracer is not None:
                tracer.uninstall()
        result["peak_rss_mb"] = peak_rss_mb()
        if tracer is not None:
            result["trace"] = tracer.summary()
            tracer.write(spec["trace_dir"])
    speed.stop()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
