"""Seeded inputs for the diagram-eval-eq workload.

From one seed this writes two interpretation files (over ``nat`` and
``nonneg-rational``) and the term files of a query batch.  gsrel receives
only these files.  The seed draws the interpretations: every generator
entry, which entries are zero, and which entry the raised copy raises.  The
terms are drawn once, from a fixed seed, so every seed runs the same mix of
term shapes; with terms drawn per seed, the median and tail query times
moved by 10-13% from seed to seed.  Each query records the answer known
from construction:

* ``eval``: a random term; its arrow must equal the reference evaluator's.
* ``eq`` equal: ``P ; L ; S`` against ``P ; R ; S`` where ``L = R`` is one
  of the seven structural axiom schemas that ``gsrel.diagram.gsm_axiom_pairs``
  lists, restated here as text so the inputs do not come from the program.
* ``eq`` unequal: ``G ; C`` against ``Gp ; C`` where ``Gp`` is generator
  ``G`` with one entry raised.  Every generator has a nonzero entry in each
  row, and id, copy, del, swap, dom, mass, composition and tensor keep that
  property over nonnegative values, so ``C`` has no zero row and the
  raised entry always shows in the result.
"""
from __future__ import annotations

import json
import os
import random
from fractions import Fraction

import reference

SEMIRINGS = ("nat", "nonneg-rational")
SORTS = ("A", "B")
WORDS = (("A",), ("B",), ("A", "B"))
# Query mix per semiring; one batch is the whole list over both semirings.
EVAL_PER_SEMIRING = 24
EQUAL_PER_SEMIRING = 12
UNEQUAL_PER_SEMIRING = 12
DEPTH = 3
# Sort sizes per semiring, and the band of reference work (products of
# nonzero entries, see reference.evaluate) a query must fall in, on the
# interpretation drawn from TERMS_SEED.  Fraction arithmetic costs more per
# product, hence the lower band.
SIZES = {"nat": {"A": 8, "B": 6}, "nonneg-rational": {"A": 7, "B": 6}}
WORK_BAND = {"nat": (18000, 30000), "nonneg-rational": (9000, 15000)}
MAX_DRAWS = 500
TERMS_SEED = "diagram-eval-eq:terms"


def axiom_pairs(a: str, b: str) -> list:
    """(name, left, right, dom word, cod word) for the seven schemas."""
    return [
        (
            "copy-coassoc",
            f"copy[{a}] ; (copy[{a}] * id[{a}])",
            f"copy[{a}] ; (id[{a}] * copy[{a}])",
            (a,),
            (a, a, a),
        ),
        ("copy-cocomm", f"copy[{a}] ; swap[{a};{a}]", f"copy[{a}]", (a,), (a, a)),
        ("copy-counit-right", f"copy[{a}] ; (id[{a}] * del[{a}])", f"id[{a}]", (a,), (a,)),
        ("copy-counit-left", f"copy[{a}] ; (del[{a}] * id[{a}])", f"id[{a}]", (a,), (a,)),
        (
            "copy-tensor-mult",
            f"copy[{a},{b}]",
            f"(copy[{a}] * copy[{b}]) ; (id[{a}] * swap[{a};{b}] * id[{b}])",
            (a, b),
            (a, b, a, b),
        ),
        ("del-tensor-mult", f"del[{a},{b}]", f"del[{a}] * del[{b}]", (a, b), ()),
        ("unit-object", "copy[] * del[]", "id[]", (), ()),
    ]


def _w(word) -> str:
    return ",".join(word)


def _generators() -> dict:
    """name -> (dom word, cod word) of the base generators."""
    gens = {f"g{x}{y}": ((x,), (y,)) for x in SORTS for y in SORTS}
    gens.update({f"m{y}": (("A", "B"), (y,)) for y in SORTS})
    gens.update({f"n{x}": ((x,), ("A", "B")) for x in SORTS})
    return gens


class _Terms:
    """Random well-typed terms over the generators, as text."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def base(self, x, y) -> str:
        rng = self.rng
        if len(x) == 1 and len(y) == 1:
            return f"g{x[0]}{y[0]}"
        if len(x) == 2 and len(y) == 1:
            if x == ("A", "B"):
                return f"m{y[0]}"
            z = rng.choice(WORDS[:2])
            return f"({self.base(x[:1], y)} * mass({self.base(x[1:], z)}))"
        if len(x) == 1:
            if y == ("A", "B"):
                return f"n{x[0]}"
            return f"(copy[{x[0]}] ; ({self.base(x, y[:1])} * {self.base(x, y[1:])}))"
        return f"({self.base(x[:1], y[:1])} * {self.base(x[1:], y[1:])})"

    def term(self, x, y, depth: int) -> str:
        if depth <= 0:
            return self.base(x, y)
        rng = self.rng
        d = depth - 1
        z = rng.choice(WORDS)
        options = [
            lambda: f"({self.term(x, z, d)} ; {self.term(z, y, d)})",
            lambda: f"(dom({self.term(x, z, d)}) ; {self.term(x, y, d)})",
            lambda: f"(copy[{_w(x)}] ; (id[{_w(x)}] * del[{_w(x)}]) ; {self.term(x, y, d)})",
        ]
        if len(x) == 1:
            options.append(
                lambda: f"(copy[{x[0]}] ; ({self.term(x, y, d)} * mass({self.term(x, z[:1], d)})))"
            )
        if len(x) == 2:
            options.append(
                lambda: f"(swap[{x[0]};{x[1]}] ; {self.term((x[1], x[0]), y, d)})"
            )
        if len(x) == 2 and len(y) == 2:
            options.append(
                lambda: f"({self.term(x[:1], y[:1], d)} * {self.term(x[1:], y[1:], d)})"
            )
        return rng.choice(options)()

    def sink(self, cod, y) -> str:
        """A term cod -> y that keeps one factor of cod and discharges the rest."""
        keep = self.rng.randrange(len(cod))
        parts = []
        for i, s in enumerate(cod):
            if i == keep:
                parts.append(self.term((s,), y, DEPTH - 1))
            elif self.rng.random() < 0.5:
                parts.append(f"del[{s}]")
            else:
                parts.append(f"mass({self.base((s,), self.rng.choice(WORDS[:2]))})")
        return "(" + " * ".join(parts) + ")"


def _interpretation(rng: random.Random, semiring: str, sizes: dict) -> dict:
    def value():
        if semiring == "nat":
            return rng.randint(1, 9)
        return Fraction(rng.randint(1, 6), rng.randint(1, 4))

    def size(word):
        n = 1
        for s in word:
            n *= sizes[s]
        return n

    def labels(word, i):
        out = []
        for s in reversed(word):
            out.append(str(i % sizes[s]))
            i //= sizes[s]
        return out[::-1]

    step = 1 if semiring == "nat" else Fraction(1, 2)
    generators = {}
    for name, (dom, cod) in _generators().items():
        rows = size(dom)
        cols = size(cod)
        table = [[value() if rng.random() < 0.85 else 0 for _ in range(cols)] for _ in range(rows)]
        for row in table:
            if not any(row):
                row[rng.randrange(cols)] = value()
        raised = [list(row) for row in table]
        i, j = rng.randrange(rows), rng.randrange(cols)
        raised[i][j] += step
        for gname, t in ((name, table), (name + "p", raised)):
            entries = []
            for r in range(rows):
                for c in range(cols):
                    if t[r][c]:
                        entries.append([labels(dom, r), labels(cod, c), str(t[r][c])])
            generators[gname] = {"dom": list(dom), "cod": list(cod), "entries": entries}
    return {"semiring": semiring, "sorts": dict(sizes), "generators": generators}


def generate(seed: int, directory: str) -> list:
    """Write the inputs; return the query batch as dicts.

    Each query carries its argv for ``gsrel.cli.main``, the answer known from
    construction (``equal`` for eq), and the reference matrices of its terms.
    """
    rng = random.Random(f"diagram-eval-eq:{seed}")
    term_rng = random.Random(TERMS_SEED)
    terms = _Terms(term_rng)
    queries = []

    def write(name: str, text: str) -> str:
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        return path

    for semiring in SEMIRINGS:
        doc = _interpretation(rng, semiring, SIZES[semiring])
        interp_path = os.path.join(directory, f"interp-{semiring}.json")
        with open(interp_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
        ref = reference.Interp(doc)
        shape = reference.Interp(
            _interpretation(random.Random(f"{TERMS_SEED}:{semiring}"), semiring, SIZES[semiring])
        )
        plan = (
            ["eval"] * EVAL_PER_SEMIRING
            + ["equal"] * EQUAL_PER_SEMIRING
            + ["unequal"] * UNEQUAL_PER_SEMIRING
        )
        for kind in plan:
            left, right, sizes, expected = _draw_in_band(
                term_rng, terms, kind, shape, ref, WORK_BAND[semiring]
            )
            q = len(queries)
            command = "eval" if right is None else "eq"
            paths = [write(f"q{q:03d}-left.term", left)]
            if right is not None:
                paths.append(write(f"q{q:03d}-right.term", right))
            out = os.path.join(directory, f"q{q:03d}.out.json")
            queries.append({
                "id": q,
                "kind": command,
                "equal": None if right is None else kind == "equal",
                "semiring": semiring,
                "left": left,
                "right": right,
                "sizes": sizes,
                "expected": expected,
                "terms": paths,
                "interp": interp_path,
                "out": out,
                "argv": [command, *paths, interp_path, "--format", "structured", "--out", out],
            })
    return queries


def _draw(rng: random.Random, terms: _Terms, kind: str):
    """(left, right or None, dom word, cod word) of one query."""
    x, y = rng.choice(WORDS), rng.choice(WORDS)
    if kind == "eval":
        return terms.term(x, y, DEPTH), None, x, y
    if kind == "equal":
        return _axiom_instance(rng, terms, x, y)
    gens = _generators()
    g = rng.choice(sorted(gens))
    dom, cod = gens[g]
    tail = terms.term(cod, y, DEPTH - 1)
    return f"{g} ; {tail}", f"{g}p ; {tail}", dom, y


def _draw_in_band(rng, terms, kind, shape, ref, band):
    """Draw until the query's reference work on `shape` lies in `band`, so
    that no query is trivial or huge.  Returns the texts, the sort sizes of
    the boundary words, and the reference matrices on `ref` (one for eval,
    a pair for eq)."""
    lo, hi = band
    for _ in range(MAX_DRAWS):
        left, right, x, y = _draw(rng, terms, kind)
        try:
            work = reference.work(left, shape, limit=hi)
            if right is not None:
                work += reference.work(right, shape, limit=hi - work)
        except reference.WorkLimitExceeded:
            continue
        if work < lo:
            continue
        lm, _ = reference.evaluate(left, ref)
        if right is not None:
            rm, _ = reference.evaluate(right, ref)
        if right is not None and (lm == rm) != (kind == "equal"):
            raise RuntimeError(f"{kind} pair breaks its construction: {left!r} vs {right!r}")
        sizes = ([ref.sizes[s] for s in x], [ref.sizes[s] for s in y])
        return left, right, sizes, lm if right is None else (lm, rm)
    raise RuntimeError(f"no {kind} query with work in {band} after {MAX_DRAWS} draws")


def _axiom_instance(rng: random.Random, terms: _Terms, x, y):
    a, b = rng.sample(SORTS, 2)
    _name, lhs, rhs, dom, cod = rng.choice(axiom_pairs(a, b))
    if not dom:
        t = terms.term(x, y, DEPTH)
        return f"{t} * ({lhs})", f"{t} * ({rhs})", x, y
    x = x[:1] if not cod else x
    head = terms.term(x, dom, DEPTH - 1)
    if not cod:
        t = terms.term(x, y, DEPTH - 1)
        return (
            f"copy[{x[0]}] ; (({head} ; ({lhs})) * {t})",
            f"copy[{x[0]}] ; (({head} ; ({rhs})) * {t})",
            x,
            y,
        )
    tail = terms.sink(cod, y)
    return f"{head} ; ({lhs}) ; {tail}", f"{head} ; ({rhs}) ; {tail}", x, y
