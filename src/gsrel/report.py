"""Law-check reports and deterministic seeding shared by every module.

A law check walks a case stream and stops at the first violation.  The
resulting LawReport records how the stream was produced (exhaustive or
sampled), how many cases ran, and, for a failure, a witness that can be
re-evaluated independently of the checker that found it.  Laws that share
their cases are checked in one pass (check_laws), which gives each law the
report check_cases would give it alone.
"""
from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Callable, Collection, Iterable

EXHAUSTIVE_PASS = "exhaustive_pass"
SAMPLED_PASS = "sampled_pass"
COUNTEREXAMPLE = "counterexample"

# Work budget.  check_semiring_laws enumerates a finite carrier's triples
# only when they fit in it, and checks a seeded sample of about budget**(1/3)
# elements otherwise; the law suites clamp `samples` to it.  Nothing else
# falls back from enumeration to sampling when it is crossed.
DEFAULT_BUDGET = 10**6


@dataclass
class LawReport:
    law: str
    status: str
    checks_performed: int
    witness: object = None

    @property
    def passed(self) -> bool:
        return self.status != COUNTEREXAMPLE

    @property
    def exhaustive(self) -> bool:
        return self.status == EXHAUSTIVE_PASS


def check_cases(
    law: str,
    cases: Iterable,
    holds: Callable[[object], bool],
    describe: Callable[[object], object],
    exhaustive: bool = True,
) -> LawReport:
    """Evaluate `holds` over `cases`, stopping at the first violation."""
    n = 0
    for case in cases:
        n += 1
        if not holds(case):
            return LawReport(law, COUNTEREXAMPLE, n, describe(case))
    return LawReport(law, EXHAUSTIVE_PASS if exhaustive else SAMPLED_PASS, n)


def check_laws(
    laws: Collection[str],
    cases: Iterable,
    holds_for: Callable[[object], Callable[[str], bool]],
    describe: Callable[[object], object],
    exhaustive: bool = True,
) -> list[LawReport]:
    """check_cases for several laws over one walk of `cases`, in law order.

    `holds_for(case)` is the case's predicate on a law, so the laws share
    whatever the case builds.  Each law stops at its first violation."""
    status = EXHAUSTIVE_PASS if exhaustive else SAMPLED_PASS
    if len(laws) == 1:
        # one law walks as check_cases does, with no bookkeeping across laws
        [law] = laws
        n = 0
        for case in cases:
            n += 1
            if not holds_for(case)(law):
                return [LawReport(law, COUNTEREXAMPLE, n, describe(case))]
        return [LawReport(law, status, n)]
    failed = {}
    n = 0
    for case in cases:
        n += 1
        holds = holds_for(case)
        for law in laws:
            if law not in failed and not holds(law):
                failed[law] = LawReport(law, COUNTEREXAMPLE, n, describe(case))
        if len(failed) == len(laws):
            break
    return [failed.get(law) or LawReport(law, status, n) for law in laws]


def derive_rng(seed: int, *tags) -> random.Random:
    """Stable per-site RNG: same seed and tags give the same stream anywhere."""
    key = ":".join(str(t) for t in tags)
    return random.Random((seed * 0x9E3779B1 + zlib.crc32(key.encode("utf-8"))) & 0xFFFFFFFF)
