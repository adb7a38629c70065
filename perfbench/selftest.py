#!/usr/bin/env python3
"""Shows that the benchmark's checks can fail.

    python3 perfbench/selftest.py

On a tiny configuration it runs the same check functions as run.py, first on
correct outputs (no failed operation allowed) and then with planted faults,
each of which must be counted as a failed operation:

  * a broken MonadOps (mu ignores the outer weights) planted through
    ``gsrel.cli.main(..., _ops_override=...)``: blocking rows, exit code 1;
  * a corrupted digest pin on a correct report;
  * a corrupted reference arrow for an eval query;
  * a flipped expected verdict for an eq query.

Exits 0 when every expectation holds, 1 otherwise.
"""
from __future__ import annotations

import copy
import hashlib
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import diagram_gen  # noqa: E402
import worker  # noqa: E402
import gsrel.cli  # noqa: E402
from gsrel import MonadOps, wm_eta, wm_make, wm_psi, wm_pushforward  # noqa: E402

TINY_TAXONOMY = ["taxonomy", "--semiring", "nat", "--variant", "M", "--sizes", "0,1",
                 "--seed", "11", "--format", "structured"]


def mu_drop_outer(sr, H):
    out = {}
    for h, _w in H.entries:
        for k, v in h.entries:
            out[k] = sr.add(out.get(k, sr.zero), v)
    return wm_make(sr, out)


BROKEN_OPS = MonadOps(wm_eta, mu_drop_outer, wm_psi, wm_pushforward)


def taxonomy_case(work: str, ops, pin_of) -> tuple[int, int]:
    """(attempted, failed) for one tiny taxonomy call checked against a pin."""
    out = os.path.join(work, "tiny.jsonl")
    call = worker.run_calls(gsrel.cli, [TINY_TAXONOMY + ["--out", out]], ops)["calls"][0]
    with open(out, "rb") as fh:
        data = fh.read()
    reason = call["error"] or checks.check_report(call["rc"], data, pin_of(data), None)
    return 1, int(reason is not None)


def diagram_case(queries: list) -> tuple[int, int]:
    result = worker.run_calls(gsrel.cli, [q["argv"] for q in queries])
    failed = 0
    for q, call in zip(queries, result["calls"]):
        with open(q["out"], "rb") as fh:
            data = fh.read()
        failed += (call["error"] or checks.check_query(q, call["rc"], data)) is not None
    return len(queries), failed


def main() -> int:
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench")) as work:
        def good_pin(data):
            return {"sha256": hashlib.sha256(data).hexdigest()}

        def bad_pin(data):
            digest = hashlib.sha256(data).hexdigest()
            return {"sha256": ("0" if digest[0] != "0" else "1") + digest[1:]}

        queries = diagram_gen.generate(11, work)
        tiny = [next(q for q in queries if q["kind"] == "eval"),
                next(q for q in queries if q["equal"] is True),
                next(q for q in queries if q["equal"] is False)]
        wrong_arrow = copy.copy(tiny[0])
        wrong_arrow["expected"] = copy.deepcopy(tiny[0]["expected"])
        wrong_arrow["expected"].data[0][0] += 1
        flipped = [dict(q, equal=not q["equal"]) for q in tiny[1:]]

        cases = [
            ("clean taxonomy", taxonomy_case(work, None, good_pin), False),
            ("broken MonadOps", taxonomy_case(work, BROKEN_OPS, good_pin), True),
            ("corrupted digest pin", taxonomy_case(work, None, bad_pin), True),
            ("clean diagram queries", diagram_case(tiny), False),
            ("corrupted reference arrow", diagram_case([wrong_arrow]), True),
            ("flipped eq verdicts", diagram_case(flipped), True),
        ]
    ok = True
    for name, (attempted, failed), faulty in cases:
        rate = failed / attempted
        holds = rate > 0 if faulty else rate == 0
        ok = ok and holds
        print(f"{'ok  ' if holds else 'FAIL'} {name}: error_rate {failed}/{attempted}"
              f" (expected {'> 0' if faulty else '0'})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
