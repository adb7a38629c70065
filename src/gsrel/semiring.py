"""Exact semirings: builtin catalog, table-loaded instances, law checks.

A semiring here is (M, add, mul, zero, one) with a commutative additive
monoid, a multiplicative monoid, two-sided distributivity, and zero
annihilating.  All arithmetic is exact: ints for bool/nat/gf(p), Fraction
for the rational carriers, table indices for finite custom instances.
Floats never enter law checking.

The builtin carriers are one table, `_BUILTINS`, of shared `Semiring`
rows: a Semiring is frozen and its functions are pure, so one instance
per name serves every caller.  gf(p) is built per modulus.  One factory,
`_checked`, makes every builtin label parser: it converts with int() or
`_fraction` and refuses a value outside the carrier with that carrier's
message.  bool, nat and the two fuzzy carriers share one inverse,
`_only_one`: their one is their only invertible element, and the inverse
returns that one object, an int or a Fraction as the carrier's values are.

Infinite carriers are checked on deterministic seeded samples:
  nat       -> {0..5} plus 8 seeded values <= 100
  rationals -> 12 seeded values with numerator and denominator <= 10
"""
from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable, Mapping

from .report import DEFAULT_BUDGET, LawReport, check_cases, derive_rng


class SemiringError(ValueError):
    pass


class UnknownSemiringError(SemiringError):
    pass


class TableFormatError(SemiringError):
    pass


@dataclass(frozen=True)
class Semiring:
    """Carrier plus exact operations.  Instances are immutable and shareable.

    `plain_rational` asserts that the values are Fractions and that add and
    mul are the ordinary + and x of the rationals.  wrel_compose and
    wrel_tensor then run each row as integers over a common denominator and
    call neither add nor mul.  Only the nonneg-rational row sets it.  A copy
    that replaces add or mul must clear it, unless the new functions still
    compute + and x (a wrapper that counts calls, say), and then those
    calls are not made.

    `positive` asserts that no sum and no product of nonzero values of the
    carrier is zero: the carrier is zero-sum-free and has no zero divisors.
    wm_psi, wm_mu, wm_pushforward, wrel_compose and wrel_tensor then store
    their results without testing each value against zero.  Only the bool,
    nat, nonneg-rational and two fuzzy rows set it; gf(p) and table
    semirings never do.  A copy that replaces add or mul must clear it,
    unless the new functions compute the same values.
    """

    name: str
    zero: object
    one: object
    add: Callable[[object, object], object]
    mul: Callable[[object, object], object]
    # Partial multiplicative inverse: the inverse of a, or None when a has
    # none.  Builtins give a closed form, table semirings a table lookup.
    inverse: Callable[[object], object]
    elements: tuple | None = None
    sample_pool: Callable[[object], list] | None = None
    label: Callable[[object], str] = field(default=str)
    parse: Callable[[str], object] = field(default=None)
    plain_rational: bool = False
    positive: bool = False

    @property
    def finite(self) -> bool:
        return self.elements is not None

    def sum(self, values) -> object:
        acc = self.zero
        for v in values:
            acc = self.add(acc, v)
        return acc

    def sample_elements(self, rng) -> list:
        if self.elements is not None:
            return list(self.elements)
        return self.sample_pool(rng)

    def __repr__(self) -> str:
        return f"Semiring({self.name!r})"


def mul_inverse(sr: Semiring, a):
    """Two-sided multiplicative inverse of a, or None if there is none.

    sr.inverse is trusted only as far as its answer checks out: a claimed
    inverse that is not two-sided raises SemiringError.
    """
    m = sr.inverse(a)
    if m is None:
        return None
    if sr.mul(a, m) == sr.one and sr.mul(m, a) == sr.one:
        return m
    raise SemiringError(f"{sr.name}: inverse({sr.label(a)}) failed verification")


# ---------------------------------------------------------------------------
# builtin catalog


# Python prints no int of more digits than this (its default limit on
# int-to-string conversion), and Fraction("1e10000000") spends 10 s building
# 10**10000000: a rational label's exponent may be no larger.
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def _fraction(s: str) -> Fraction:
    """Fraction(s), after refusing an exponent beyond +-_MAX_EXPONENT.  An
    exponent of more than 4300 digits is int()'s error, as in Fraction()."""
    exponent = _EXPONENT.search(s)
    if exponent and abs(int(exponent.group(1))) > _MAX_EXPONENT:
        raise SemiringError(f"label exponent is beyond +-{_MAX_EXPONENT}: {s!r}")
    return Fraction(s)


def _checked(convert, ok, message: str) -> Callable[[str], object]:
    """A label parser: convert the label, then refuse a value that is not
    in the carrier.  Conversion errors are int()'s and Fraction()'s own."""

    def parse(s: str):
        v = convert(s)
        if not ok(v):
            raise SemiringError(f"{message}: {s!r}")
        return v

    return parse


def _only_one(one) -> Callable[[object], object]:
    """The inverse of a carrier whose only invertible element is its one."""
    return lambda a: one if a == one else None


def _nat_pool(rng) -> list:
    return list(range(6)) + [rng.randint(0, 100) for _ in range(8)]


def _rational_pool(rng) -> list:
    return [Fraction(rng.randint(0, 10), rng.randint(1, 10)) for _ in range(12)]


def _unit_interval_pool(rng) -> list:
    out = []
    for _ in range(12):
        den = rng.randint(1, 10)
        out.append(Fraction(rng.randint(0, den), den))
    return out


_Q0, _Q1 = Fraction(0), Fraction(1)  # zero and one of the rational carriers
_UNIT_LABEL = _checked(_fraction, lambda v: 0 <= v <= 1, "label outside [0,1]")

# One shared instance per name: a Semiring is frozen and its functions pure.
# Fields in order: name, zero, one, add, mul, inverse.
_BUILTINS = {
    sr.name: sr
    for sr in (
        Semiring(
            "bool", 0, 1, operator.or_, operator.and_, _only_one(1),
            elements=(0, 1),
            parse=_checked(int, lambda v: v in (0, 1), "bool label out of range"),
            positive=True,
        ),
        Semiring(
            "nat", 0, 1, operator.add, operator.mul, _only_one(1),
            sample_pool=_nat_pool,
            parse=_checked(int, lambda v: v >= 0, "nat label is negative"),
            positive=True,
        ),
        Semiring(
            "nonneg-rational", _Q0, _Q1, operator.add, operator.mul,
            lambda a: None if a == 0 else _Q1 / a,
            sample_pool=_rational_pool,
            parse=_checked(_fraction, lambda v: v >= 0, "nonneg-rational label is negative"),
            plain_rational=True,
            positive=True,
        ),
        # min(a, m) = 1 forces a = m = 1, so 1 is the only invertible element.
        Semiring(
            "fuzzy-max-min", _Q0, _Q1, max, min, _only_one(_Q1),
            sample_pool=_unit_interval_pool,
            parse=_UNIT_LABEL,
            positive=True,
        ),
        # a * m = 1 with both in [0,1] forces a = m = 1.
        Semiring(
            "fuzzy-max-times", _Q0, _Q1, max, operator.mul, _only_one(_Q1),
            sample_pool=_unit_interval_pool,
            parse=_UNIT_LABEL,
            positive=True,
        ),
    )
}


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _make_gf(p: int) -> Semiring:
    if not _is_prime(p):
        raise UnknownSemiringError(f"gf({p}): modulus must be prime")
    return Semiring(
        f"gf({p})", 0, 1,
        lambda a, b: (a + b) % p,
        lambda a, b: (a * b) % p,
        lambda a: pow(a, p - 2, p) if a % p else None,
        elements=tuple(range(p)),
        parse=_checked(int, lambda v: 0 <= v < p, f"gf({p}) label out of range"),
    )


def load_table_semiring(doc: Mapping) -> Semiring:
    """Build a finite semiring from a table document.

    Schema: {"elements": [labels], "plus": n x n label table,
    "times": n x n label table, "zero": label, "one": label}.
    Structural validation only (shapes, label uniqueness, closure); axioms
    are the job of check_semiring_laws.
    """
    # `in` would search a list for the field names and fail on an int
    if not isinstance(doc, Mapping):
        raise TableFormatError("table document must be an object")
    for key in ("elements", "plus", "times", "zero", "one"):
        if key not in doc:
            raise TableFormatError(f"table document missing field {key!r}")
    labels = doc["elements"]
    if not isinstance(labels, (list, tuple)):
        raise TableFormatError("'elements' must be a list of labels")
    if not labels:
        raise TableFormatError("table document has no elements")
    if any(not isinstance(l, str) for l in labels):
        raise TableFormatError("element labels must be strings")
    if len(set(labels)) != len(labels):
        raise TableFormatError("element labels are not distinct")
    n = len(labels)
    index = {l: i for i, l in enumerate(labels)}

    def lookup(key: str, label) -> int:
        # every label is a string, so anything else (lists included) is not one
        if not isinstance(label, str) or label not in index:
            raise TableFormatError(f"{key!r} entry {label!r} is not an element")
        return index[label]

    def read_table(key: str):
        rows = doc[key]
        if not isinstance(rows, (list, tuple)) or len(rows) != n or any(
            not isinstance(r, (list, tuple)) or len(r) != n for r in rows
        ):
            raise TableFormatError(f"{key!r} table is not {n}x{n}")
        return tuple(tuple(lookup(key, entry) for entry in r) for r in rows)

    plus = read_table("plus")
    times = read_table("times")
    zero, one = lookup("zero", doc["zero"]), lookup("one", doc["one"])
    # Two-sided inverses, found once here.  Only a table whose times is not
    # associative can give an element two; the first in element order is kept.
    inverses = {}
    for a, m in product(range(n), repeat=2):
        if times[a][m] == one == times[m][a]:
            inverses.setdefault(a, m)

    def parse(s: str) -> int:
        if s not in index:
            raise SemiringError(f"unknown table element label {s!r}")
        return index[s]

    return Semiring(
        name=str(doc.get("name", "table")),
        zero=zero,
        one=one,
        add=lambda a, b: plus[a][b],
        mul=lambda a, b: times[a][b],
        inverse=inverses.get,
        elements=tuple(range(n)),
        label=lambda i: labels[i],
        parse=parse,
    )


_ALIASES = {
    "q+": "nonneg-rational",
    "nonneg_rational": "nonneg-rational",
    "boolean": "bool",
}

_GF_RE = re.compile(r"^gf\((\d+)\)$")
# gf(p) materialises its p elements, and the suites walk them: taxonomy at
# seed 11 takes seconds at gf(101) and minutes at gf(997).  The cap is read
# off the digits, so neither int() nor the primality test sees a long one.
_GF_MAX = 1000

# Default catalog used by the taxonomy suite.
CATALOG = ("bool", "nat", "nonneg-rational", "fuzzy-max-min", "fuzzy-max-times", "gf(2)")


def load_semiring(spec) -> Semiring:
    """Resolve a builtin name, a gf(p) spec, or a table document."""
    if isinstance(spec, Semiring):
        return spec
    if isinstance(spec, str):
        name = _ALIASES.get(spec.strip(), spec.strip())
        gf = _GF_RE.match(name)
        if gf:
            digits = gf.group(1).lstrip("0") or "0"
            if len(digits) > len(str(_GF_MAX)) or int(digits) > _GF_MAX:
                raise UnknownSemiringError(f"gf(p): modulus above {_GF_MAX} is not supported")
            return _make_gf(int(digits))
        if name in _BUILTINS:
            return _BUILTINS[name]
        raise UnknownSemiringError(f"unknown semiring {spec!r}")
    if isinstance(spec, Mapping):
        return load_table_semiring(spec)
    raise SemiringError(f"cannot load a semiring from {type(spec).__name__}")


# ---------------------------------------------------------------------------
# law checking and classification


def _carrier(sr: Semiring, seed: int) -> tuple[list, bool]:
    """Sample set plus whether it is the whole carrier."""
    if sr.finite:
        return list(sr.elements), True
    pool = sr.sample_elements(derive_rng(seed, "carrier", sr.name))
    extra = [v for v in (sr.zero, sr.one) if v not in pool]
    return pool + extra, False


def _check_laws(sr: Semiring, xs: list, exhaustive: bool, laws) -> list[LawReport]:
    """One report per (law, arity, holds), over every arity-tuple of xs."""
    return [
        check_cases(
            law,
            product(xs, repeat=arity),
            holds,
            describe=lambda t: [sr.label(v) for v in t],
            exhaustive=exhaustive,
        )
        for law, arity, holds in laws
    ]


def check_semiring_laws(sr: Semiring, budget: int = DEFAULT_BUDGET, seed: int = 0) -> list[LawReport]:
    """Check the semiring axioms; one LawReport per axiom."""
    xs, full = _carrier(sr, seed)
    exhaustive = full and len(xs) ** 3 <= budget
    if full and not exhaustive:
        rng = derive_rng(seed, "laws", sr.name)
        xs = [rng.choice(xs) for _ in range(max(2, round(budget ** (1 / 3))))]
    add, mul, zero, one = sr.add, sr.mul, sr.zero, sr.one
    return _check_laws(sr, xs, exhaustive, [
        ("semiring/add-assoc", 3, lambda t: add(add(t[0], t[1]), t[2]) == add(t[0], add(t[1], t[2]))),
        ("semiring/add-comm", 2, lambda t: add(t[0], t[1]) == add(t[1], t[0])),
        ("semiring/add-unit", 1, lambda t: add(zero, t[0]) == t[0] == add(t[0], zero)),
        ("semiring/mul-assoc", 3, lambda t: mul(mul(t[0], t[1]), t[2]) == mul(t[0], mul(t[1], t[2]))),
        ("semiring/mul-unit", 1, lambda t: mul(one, t[0]) == t[0] == mul(t[0], one)),
        ("semiring/distrib-left", 3, lambda t: mul(t[0], add(t[1], t[2])) == add(mul(t[0], t[1]), mul(t[0], t[2]))),
        ("semiring/distrib-right", 3, lambda t: mul(add(t[0], t[1]), t[2]) == add(mul(t[0], t[2]), mul(t[1], t[2]))),
        ("semiring/annihilation", 1, lambda t: mul(zero, t[0]) == zero == mul(t[0], zero)),
    ])


@dataclass
class SemiringProfile:
    mult_idempotent: bool
    absorptive: bool
    distributive_lattice: bool
    semifield: bool
    reports: dict[str, LawReport]


def classify_semiring(sr: Semiring, seed: int = 0) -> SemiringProfile:
    """Decide the classification flags on the carrier or its seeded sample.

    A finite carrier is checked in full, so its flags are exhaustive; the
    work is bounded by its own n x n tables.  A counterexample settles a flag
    negatively for good; a pass on an infinite carrier is recorded as
    sampled, never as exhaustive.
    """
    xs, full = _carrier(sr, seed)
    add, mul = sr.add, sr.mul
    laws = {
        "mult_idempotent": ("classify/mult-idempotent", 1, lambda t: mul(t[0], t[0]) == t[0]),
        "absorptive": ("classify/absorptive", 2, lambda t: mul(t[0], add(t[0], t[1])) == t[0]),
        "distributive_lattice": (
            "classify/distributive-lattice",
            2,
            lambda t: mul(t[0], t[0]) == t[0]
            and add(t[0], t[0]) == t[0]
            and mul(t[0], add(t[0], t[1])) == t[0]
            and add(t[0], mul(t[0], t[1])) == t[0],
        ),
        "semifield": (
            "classify/semifield",
            1,
            lambda t: t[0] == sr.zero or mul_inverse(sr, t[0]) is not None,
        ),
    }
    reports = dict(zip(laws, _check_laws(sr, xs, full, laws.values())))
    return SemiringProfile(**{name: r.passed for name, r in reports.items()}, reports=reports)
