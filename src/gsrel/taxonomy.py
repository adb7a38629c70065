"""Law suites over the weighted monad and its Kleisli arrows.

Three layers:
  check_monad_laws   the monad and lax-monoidal axioms; sub-family closure
                     comes from variant_closure_reports, which
                     classify_monad runs
  classify_monad     functor-class flags, each decided by two oracles: a
                     pointwise criterion and the literal commuting diagram
                     evaluated with psi and pushforwards
  classify_kleisli   per-arrow category flags quantified over variant arrows

Laws are data.  Each monad/* law and each equational monadflag/*-diagram
oracle is one row of _EQUATIONS: a predicate over the slots of its case,
evaluated through a _BoundOps, the run's ops bound to its semiring for one
call, whose memoized applications are named *_once.  _FLAG_TABLE declares
each monad flag once: its law stem, pointwise criterion, case sets and
closure preconditions.  Four pointwise criteria are sub-family
memberships, asked through in_variant: affine asks the unit-word maps to
be in Ma, domain_preserving asks Md, and mass_preserving and
unital_domain_preserving ask Mm.  The theorem and implication rows of
each pair come from the module tables _THEOREMS and _IMPLICATIONS.  The
Kleisli-level rows (gsm/, cansem/, structural/, homm/ and the kleisli/
flags) are the term equations of diagram.LAW_TABLE, which the diagram
evaluator decides case by case.  Every row is checked by
report.check_laws, which takes the rows over one list of cases in one
pass: it builds each case once for all of them and stops each row at its
first failure, so every row gets the report check_cases would give it
alone.  A row over a run's pools goes through _Run.check; only the gsm/
and cansem/ rows, over words alone, call report.check_laws directly.

Pools carry their own completeness.  Every law family draws its pools
through three _Run methods: maps (a variant's map pools over a word
family), nested (variant maps keyed by the maps of a pool) and arrows (one
dom and cod; arrow_grid joins them over every pair of sizes).  Each pool
is a _Pool, a list that says whether it is complete, that is enumerated,
or a seeded sample; a nested pool is complete only when its inner pool is.
An enumerated pool reads no tag, so maps and arrows build each complete
pool of a variant once, keyed by the variant and the word, or dom and
cod, and every family that asks for it again gets the same object; a
sampled pool is drawn afresh under its tag.
A law's cases come in groups, one per word, word pair, function pair or
size triple; _Run.grouped_cases gives each group an equal share of the
samples, enumerating the group instead when its pools are complete and the
product is affordable, and returns a pool that is complete when every
group was enumerated.  Each row's status reads the completeness of its
own cases.  A word family is complete only when every word's pool is
enumerated, so maps stamps each pool with the family's flag; the flag
oracles draw the unit word's pool in a maps call of its own, so their
unit-word rows read that pool's completeness.  The rule stays until one
work budget bounds the groups too.  With per-word completeness,
check_monad_laws("M", "gf(17)", sizes=(0, 1, 2, 3), seed=11), whose X0
and X1 pools are enumerated and X2 and X3 pools sampled, would run
monad/psi-natural on 872,208 cases instead of 3,600 (9.2 s against 0.23 s
on a 2-core x86 VM), and every row would still be a sampled_pass.

One run context per semiring: a _Run holds the checked arguments (the
loaded semiring, the sorted sizes, the seed, samples clamped once to the
budget, the ops), one Structure, and the gsm/ reports, which depend on the
semiring and the sizes but on no variant.  Its constructor is the one
argument check of a semiring's run; run_theorem_suite adds the one check
across runs, that no semiring name repeats.  It makes one _Run per
semiring and drops it before the next, so every variant's rows read the
same structural arrows and the same gsm/ reports; each public law suite
is a thin call on a fresh one, as wrel_dom is on Structure.  Memos of
monad operations live on a _BoundOps and stay local to one law-suite call;
they are dicts, subscripted as psi_once[h, k], so a repeated application
costs one lookup.
The run holds the row memo: a row that another variant of the run has
checked over equal enumerated cases is replayed, not checked again.  A
sampled row is walked for every variant, since its draws are tagged per
variant, but each of its verdicts is decided once per run: the run keeps
a verdict per (law, case), and a case equal to one the law was already
asked on, by any variant, is answered from it.  The walk is the variant's
own, so its checks_performed, its first failure and the witness describe
makes of it are too.  A replayed row's checks_performed counts the cases
its verdict covers, which the run checked once.  Both memos are sound
only for a row whose predicate and witness read nothing but the run's
ops, its Structure and the case.  The laws whose predicate or witness
reads the variant are declared once, in _READS_VARIANT, and _Run.check
shares neither memo with them.

The per-arrow laws are row-local: row x of both sides reads only row x of
the arrow, or of the scalar arrows f, g and h, so a law holds on an arrow
exactly when it holds on each one-row arrow X1 -> Y cut from its rows, and
vacuously on an arrow from an empty word.  They are declared once, in
_ROW_LOCAL, and _Run.check decides each case of theirs as the AND of its
rows' verdicts.  The run keeps a verdict per law, codomain and row (or
tuple of rows at one key), so an arrow's verdict is decided once per
distinct row, across arrows, pool tags and variants; the walk over whole
arrows, so the count, the first failure and its witness, is unchanged.
closure/composition, which reads the variant, keeps its verdicts per
(row of f, g) for one call, and only for the rows it cuts from an f with
several.

run_theorem_suite ties the layers together for every (variant, semiring)
pair and emits one entry per law instance.  Entries whose law id starts
with "closure/" or "gated/" are informational: they surface sub-family
closure failures and theorem instances whose hypotheses do not hold at
that pair, without counting as refutations of anything asserted.  The
closure preconditions are checked explicitly because several catalog
pairs genuinely fail them; the affected theorems are only asserted where
their hypotheses hold, and the observed values are reported either way.

Every quantifier is either exhaustive (small finite carriers) or runs on
deterministic seeded samples; reports never present a sampled pass as
proof.  All randomness flows through derive_rng, so two runs with the
same seed and configuration produce byte-identical structured output.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain, combinations, product
from math import comb, prod
from typing import Callable, Mapping, Sequence

from .report import (
    COUNTEREXAMPLE,
    DEFAULT_BUDGET,
    EXHAUSTIVE_PASS,
    SAMPLED_PASS,
    LawReport,
    check_laws,
    derive_rng,
)
from .semiring import CATALOG, classify_semiring, load_semiring, mul_inverse
from .weightmap import (
    VARIANTS,
    FinSet,
    WeightMap,
    WeightMapError,
    Word,
    _distinct_maps,
    _enumerable,
    _first_members,
    _maps_over,
    in_variant,
    render_map,
    variant_maps,
    wm_antipode,
    wm_empty,
    wm_eta,
    wm_make,
    wm_mu,
    wm_psi,
    wm_psi0,
    wm_pushforward,
    wm_total,
    word_elements,
    word_size,
)
from .diagram import _FLAG_LAWS, _arrow_case, _LawCase
from .wrel import (
    Structure,
    WRel,
    arrow_in_variant,
    variant_arrows,
    wrel_compose,
    wrel_dom_closed,
    wrel_dom_via_kleisli_path,
    wrel_eq,
    wrel_to_doc,
)

_CASE_CAP = 20000

# The law ids, or id prefixes, whose predicate or witness reads the variant.
# _Run.check shares neither memo with them: every variant asks every case.
_READS_VARIANT = ("closure/", "kleisli/weakly-markov", "monadflag/weakly-affine-")

# The law ids, or id prefixes, that are row-local: a case holds exactly when
# each one-row case cut from it holds (see _cut).  _Run.check decides them
# row by row, each distinct row once.
_ROW_LOCAL = (
    "kleisli/markov",
    "kleisli/restriction",
    "kleisli/domain-category",
    "kleisli/mass-category",
    "structural/",
    "crosscheck/dom-",
    "homm/",
    "closure/composition",
)


class SuiteArgumentError(ValueError):
    """An argument the law suites refuse: an unknown variant, empty sizes, a
    nonpositive budget or a semiring named twice.  The CLI exits 2 on it."""


@dataclass(frozen=True)
class MonadOps:
    """Injectable monad operations; the law suite evaluates through these.

    Tests plant broken operations here to confirm the suite catches them.
    Each operation must be a pure, deterministic function of its arguments:
    a suite call may evaluate a shared sub-term once and reuse the result,
    and one run may reuse a row's report for every variant whose cases are
    equal, and a law's verdict on a sampled case for every variant that
    draws an equal case (see _Run).
    """

    eta: Callable
    mu: Callable
    psi: Callable
    pushforward: Callable


DEFAULT_OPS = MonadOps(wm_eta, wm_mu, wm_psi, wm_pushforward)


@dataclass
class FlagVerdict:
    pointwise: LawReport
    diagram: LawReport
    well_posed: bool

    @property
    def value(self) -> bool:
        """The operative flag value: the diagram verdict."""
        return self.diagram.passed

    @property
    def consistent(self) -> bool:
        return self.pointwise.passed == self.diagram.passed


@dataclass
class MonadClassification:
    variant: str
    semiring: str
    flags: dict[str, FlagVerdict]
    closure: dict[str, LawReport]

    def flag_values(self) -> dict[str, bool]:
        return {name: fv.value for name, fv in self.flags.items()}

    @property
    def consistent(self) -> bool:
        return all(fv.consistent for fv in self.flags.values())


@dataclass
class KleisliClassification:
    variant: str
    semiring: str
    reports: dict[str, LawReport]
    gsm_reports: dict[str, LawReport]
    composition_closure: LawReport

    @property
    def flags(self) -> dict[str, bool]:
        return {
            "gsm_axioms": all(r.passed for r in self.gsm_reports.values()),
            **{flag: r.passed for flag, r in self.reports.items()},
        }

    def flag_values(self) -> dict[str, bool]:
        return self.flags


@dataclass
class SuiteEntry:
    """One law instance; field order is the report schema."""

    law: str
    variant: str
    semiring: str
    status: str
    witness: object
    checks_performed: int

    @property
    def blocking(self) -> bool:
        informational = self.law.startswith("closure/") or self.law.startswith("gated/")
        return self.status == COUNTEREXAMPLE and not informational

    def to_doc(self) -> dict:
        return {
            "law": self.law,
            "variant": self.variant,
            "semiring": self.semiring,
            "status": self.status,
            "witness": _json_safe(self.witness),
            "checks_performed": self.checks_performed,
        }


def _json_safe(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [_json_safe(x) for x in obj]
    if isinstance(obj, Mapping):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    return str(obj)


# ---------------------------------------------------------------------------
# case pools


def _word_name(word: Word) -> str:
    if not word:
        return "I"
    return "*".join(f"{s.name}{s.size}" for s in word)


def _nested_dicts(sr, inner, rng, n, max_support):
    """The items of the candidate maps of _Run.nested, in order, drawn from
    rng on demand; _distinct_maps builds each distinct one."""
    vals = [v for v in sr.sample_elements(rng) if v != sr.zero]
    two = sr.add(sr.one, sr.one)
    inv2 = mul_inverse(sr, two) if two != sr.zero else None
    weights = _dedup_values([sr.one, two] + ([inv2] if inv2 is not None else []) + vals[:4], sr)
    head = min(4, len(inner))
    yield {}
    for g in inner[:3]:
        yield {g: sr.one}
    for a, b in combinations(range(head), 2):
        for w1 in weights[:4]:
            for w2 in weights[:4]:
                yield {inner[a]: w1, inner[b]: w2}
    for a, b, c in combinations(range(head), 3):
        yield {inner[a]: sr.one, inner[b]: sr.one, inner[c]: sr.one}
    bound = max_support if max_support is not None else len(inner)
    for _ in range(4 * n):
        k = rng.randint(1, max(1, min(bound, 3)))
        support = rng.sample(inner, min(k, len(inner)))
        yield {g: rng.choice(weights + vals) for g in support}


class _memo(dict):
    """op(*args), evaluated once per distinct args: memo[a, b] is op(a, b),
    and so is memo(a, b).  A subscription that hits is one dict lookup with
    no Python frame; a miss reaches __missing__.

    The dict lives only as long as its holder: a _BoundOps, which a law
    suite builds inside one call, or a _Run for the run.  Keys are maps,
    arrows, words and _TableFns, which outlive the call's cases.
    """

    __slots__ = ("op",)

    def __init__(self, op):
        self.op = op

    def __missing__(self, args):
        out = self[args] = self.op(*args)
        return out

    def __call__(self, *args):
        return self[args]


class _memo1(_memo):
    """A _memo of a one-argument op, keyed by the argument itself, which is
    never unpacked: memo[x] and memo(x) are op(x)."""

    __slots__ = ()

    def __missing__(self, arg):
        out = self[arg] = self.op(arg)
        return out

    __call__ = dict.__getitem__


def _dedup_values(values, sr):
    out = []
    for v in values:
        if v != sr.zero and v not in out:
            out.append(v)
    return out


class _TableFn(dict):
    """Function between word element sets, tabulated for stable witnesses:
    the table of key -> image, called with no Python frame.  Two functions
    compare and hash by identity, as memo keys; _Run.functions and
    _Run.tensor build each once per run."""

    __slots__ = ()
    __call__ = dict.__getitem__
    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    def describe(self):
        return [[list(k), list(v)] for k, v in sorted(self.items())]


class _Pool(list):
    """Pool members or case tuples, and whether they are all of them:
    complete when enumerated, not when a seeded sample stands in.  `parts`,
    when given, are the pools whose member lists fix these items, which
    makes a complete pool a key of the run's row memo (see _Run).  `source`
    is set by _Run.nested on the pools it filters from a candidate list."""

    def __init__(self, items, complete: bool, parts=None):
        super().__init__(items)
        self.complete = complete
        self.parts = parts
        self.source = None

    def key(self, members):
        """The parts by member list when the pool is complete and has them."""
        if not self.complete or self.parts is None:
            return None
        return tuple(map(members, self.parts))


def _functions(dom_word: Word, cod_word: Word) -> _Pool:
    """Every function between the words' element sets: a complete pool."""
    dom_keys = list(word_elements(dom_word))
    images = product(word_elements(cod_word), repeat=len(dom_keys))
    return _Pool((_TableFn(zip(dom_keys, image)) for image in images), True)


def _tensor(f: _TableFn, g: _TableFn) -> _TableFn:
    """f x g on concatenated keys."""
    return _TableFn({x + y: f(x) + g(y) for x in f for y in g})


def _keyed(pools: dict) -> _Pool:
    """(key, member) over a dict of pools, in order; complete when every pool is."""
    return _Pool(
        ((k, x) for k, pool in pools.items() for x in pool),
        all(pool.complete for pool in pools.values()),
    )


def _enumerated(pools, samples) -> bool:
    """Whether _cases enumerates the pools: every pool is complete and their
    product affordable."""
    return all(p.complete for p in pools) and prod(map(len, pools)) <= max(samples, _CASE_CAP)


def _cases(pools, samples, seed, tag, targeted=()):
    """Case tuples over the pools, lazily: their full product when
    _enumerated; otherwise targeted cases followed by seeded draws."""
    if _enumerated(pools, samples):
        return product(*pools)
    if not all(pools):
        return targeted
    rng = derive_rng(seed, "cases", tag)
    return chain(targeted, (tuple(rng.choice(p) for p in pools) for _ in range(samples)))


class _Cases:
    """One law's cases over groups (pools, tag, prefix, suffix[, targeted]),
    each case built as prefix + case + suffix only when it is read.  The
    cases are complete when every group is _enumerated, which the pools
    decide before any case is built."""

    def __init__(self, groups, samples, seed):
        self.groups = groups
        self.samples = samples
        self.seed = seed
        self.complete = all(_enumerated(pools, samples) for pools, *_ in groups)

    def __iter__(self):
        for pools, tag, prefix, suffix, *targeted in self.groups:
            for case in _cases(pools, self.samples, self.seed, tag, *targeted):
                yield prefix + case + suffix

    def key(self, members):
        """Each group's pools by member list, with its prefix and suffix,
        when the cases are complete; None for sampled cases."""
        if not self.complete:
            return None
        return tuple(
            (tuple(map(members, pools)), prefix, suffix)
            for pools, _, prefix, suffix, *_ in self.groups
        )


def _rows(f: WRel, empty) -> tuple:
    """f's rows in key order, `empty` at a zero row."""
    index = dict(f.rows)
    return tuple(index.get(x, empty) for x in word_elements(f.dom))


def _cut(case, empty):
    """A row-local law's case cut at each key of its first arrow's domain.

    A case is an arrow or a tuple of arrows.  Every arrow over the first
    one's domain is cut at the key, and the others are kept whole:
    closure/composition cuts f and keeps g.  Returns what every cut shares
    (the cut arrows' codomains and the arrows kept whole), the distinct
    rows at one key, `empty` standing for a zero row, and the builder of
    the one-row case of such a row, whose cut arrows have a one-element
    domain.  Where several arrows are cut, a row is the tuple of their
    rows.  A case over a one-element domain is its own one-row case, and
    has no builder.
    """
    arrows = case if isinstance(case, tuple) else (case,)
    dom = arrows[0].dom
    cut = [a.dom == dom for a in arrows]
    fixed = tuple(a.cod if c else a for a, c in zip(arrows, cut))
    tables = [_rows(a, empty) for a, c in zip(arrows, cut) if c]
    rows = dict.fromkeys(tables[0] if len(tables) == 1 else zip(*tables))
    if word_size(dom) == 1:
        return fixed, rows, None

    def one_row(at):
        one = tuple(FinSet(s.name, 1) for s in dom)
        key = (0,) * len(one)
        at = iter(at if len(tables) > 1 else (at,))
        built = tuple(
            WRel._canonical(one, a.cod, {key: next(at)}) if c else a for a, c in zip(arrows, cut)
        )
        return built if isinstance(case, tuple) else built[0]

    return fixed, rows, one_row


class _Run:
    """One semiring's run of the law suites: the checked arguments, one
    Structure and the gsm/ reports, the last two built on first use.

    Construction is the one argument check of every entry point: each
    variant is known, the semiring loads, sizes is nonempty (kept sorted,
    without repeats) and budget positive; samples is clamped once to the
    budget and to at least one, so a sampled pass is never a pass over no
    cases.  Drop the holder with the run: its Structure keeps every arrow it
    has built, and its memos keep what they hold.

    Every law family draws its pools through maps, nested and arrows, the
    only callers of the pool builders, and each pool says whether it is
    complete.  A word family's map pools are complete only when every
    word's pool is enumerated (see the module docstring for why).  maps and
    arrows keep the complete pools of the variant they last drew (see
    _kept): the theorem suite draws one variant at a time, and its families
    ask for the same word's maps or the same arrows under several tags.
    nested keeps nothing, since no run asks for one nested pool twice.

    The row memo.  check gives a row checked earlier in the run over the
    same enumerated cases a copy of that row's report, so a variant whose
    pools equal another's, as Md's equal M's over a distributive lattice,
    is not checked twice.  A row is keyed by its laws and by what fixes its
    cases: each group's pools by member list, with its prefix and suffix,
    or the parts of a _Pool; never the case list.  Cases with no key, a
    _Pool without parts, are checked afresh.  Sampled cases are never keyed
    as a row, because their draws are tagged per variant.  Instead check
    walks them as report.check_laws does, and asks a law only on a case
    that the verdict memo lacks; the walk, so the count and the witness, is
    unchanged.  A law of _READS_VARIANT shares neither memo.  The _TableFns
    in the keys compare by identity, so functions and tensor build them
    once per run.

    The row-verdict memo.  A law of _ROW_LOCAL is asked on one-row cases
    only (see _cut): check decides each case as the AND of its rows'
    verdicts, which the run keeps as booleans keyed by law, codomain and
    row (or tuple of rows at one key), and which every later arrow, pool
    tag and variant reads.  It takes the place of the verdict memo for
    these laws; the row memo still replays their enumerated rows.  A law
    that also reads the variant keeps its row verdicts for one check (see
    _by_rows).
    """

    def __init__(self, variants, sr, sizes, budget, seed, samples, ops=DEFAULT_OPS):
        for variant in variants:
            if variant not in VARIANTS:
                raise SuiteArgumentError(f"unknown variant {variant!r}")
        self.sr = load_semiring(sr)
        if not sizes:
            raise SuiteArgumentError("sizes must be nonempty")
        if budget <= 0:
            raise SuiteArgumentError("budget must be positive")
        self.sizes = sorted({int(v) for v in sizes})
        self.seed = seed
        self.samples = max(1, min(samples, budget))
        self.ops = ops
        self.functions = _memo(_functions)
        self.tensor = _memo(_tensor)
        self._rows = {}
        self._verdicts = {}
        self._row_verdicts = {}
        # one object per distinct pool, however many row keys hold it
        self._members = {}
        # the complete pools of one variant, by what fixes them (see _kept)
        self._kept_variant, self._complete = None, {}

    @cached_property
    def st(self) -> Structure:
        return Structure(self.sr)

    @cached_property
    def gsm(self) -> dict[str, LawReport]:
        """The gsm/ rows at the unit and every size; they depend on no variant."""
        words = self.words("A")
        pairs = [(u, v) for u in words for v in self.words("B")]
        return _gsm_reports(self.st, [()] + words, pairs)

    def words(self, name: str = "X") -> list[Word]:
        return [(FinSet(name, s),) for s in self.sizes]

    def _kept(self, variant, key, build) -> _Pool:
        """build(), or the complete pool that it gave before under the
        variant and key, which name what fixes an enumerated pool and never
        a tag.  Only the last variant's complete pools are kept: the theorem
        suite draws one variant's pools at a time."""
        if variant != self._kept_variant:
            self._kept_variant, self._complete = variant, {}
        pool = self._complete.get(key)
        if pool is None:
            pool = build()
            if pool.complete:
                self._complete[key] = pool
        return pool

    def maps(self, variant, words, tag) -> dict[Word, _Pool]:
        """Variant map pools over each word, each complete only when every
        word's pool was enumerated."""

        def draw(w):
            tagged = f"{tag}-{_word_name(w)}"
            return _Pool(*variant_maps(self.sr, w, variant, self.seed, self.samples, tagged))

        drawn = {w: self._kept(variant, w, partial(draw, w)) for w in words}
        if all(pool.complete for pool in drawn.values()):
            return drawn
        return {w: _Pool(pool, False) for w, pool in drawn.items()}

    def nested(self, variant, inner: _Pool, n, tag, max_support=None) -> _Pool:
        """Variant maps keyed by the maps of `inner`, complete only when
        `inner` is and the maps over it are enumerated.

        Finite value spaces below the cap are enumerated (optionally with an
        outer-support bound); otherwise a targeted-then-random seeded stream
        is used, built lazily and stopped at the n-th distinct member.  The
        targeted shapes cover the known closure-refutation patterns: a unit
        pair, weighted pairs including the empty inner map, and all-unit
        triples.
        """
        sr = self.sr
        if not inner:
            h = wm_empty(sr)
            return _Pool([h] if in_variant(sr, h, variant) else [], inner.complete)
        if max_support is None and _enumerable(sr, len(inner)):
            return _Pool(_maps_over(sr, inner, variant), inner.complete)
        if max_support is not None and sr.finite:
            nonzero = [v for v in sr.elements if v != sr.zero]
            supports = range(min(max_support, len(inner)) + 1)
            if sum(comb(len(inner), k) * len(nonzero) ** k for k in supports) <= _CASE_CAP:
                candidates = (
                    WeightMap(sr, dict(zip(support, values)))
                    for k in supports
                    for support in combinations(inner, k)
                    for values in product(nonzero, repeat=k)
                )
                mask = bytearray()

                def admitted():
                    for H in candidates:
                        mask.append(in_variant(sr, H, variant))
                        if mask[-1]:
                            yield H

                pool = _Pool(admitted(), inner.complete)
                # the candidates follow from inner and max_support (over the
                # run's semiring), so with the mask they fix the members
                pool.source = (inner, max_support, bytes(mask))
                return pool
        rng = derive_rng(self.seed, "nested", sr.name, variant, tag, len(inner), n)
        stream = _distinct_maps(sr, _nested_dicts(sr, inner, rng, n, max_support))
        return _Pool(_first_members(sr, stream, variant, n), False)

    def arrows(self, variant, dom: Word, cod: Word, n, tag) -> _Pool:
        """Variant arrows dom -> cod, complete when enumerated."""
        return self._kept(
            variant,
            (dom, cod),
            lambda: _Pool(*variant_arrows(self.sr, dom, cod, variant, self.seed, n, tag=tag)),
        )

    def arrow_grid(self, variant, n, tag) -> _Pool:
        """Variant arrows X(ds) -> Y(cs) over every pair of sizes, in one
        pool.  `tag` is formatted with variant, ds, cs."""
        cells = [
            self.arrows(variant, u, v, n, tag.format(variant=variant, ds=u[0].size, cs=v[0].size))
            for u in self.words("X")
            for v in self.words("Y")
        ]
        return _Pool(
            (f for cell in cells for f in cell), all(cell.complete for cell in cells), cells
        )

    def grouped_cases(self, groups, floor) -> _Cases:
        """One law's cases over groups (pools, tag, prefix, suffix[, targeted]).

        Each group gets max(floor, samples // len(groups)) cases from _cases,
        each case wrapped as prefix + case + suffix and built as it is read;
        the cases are complete when every group is enumerated in full.
        """
        return _Cases(groups, max(floor, self.samples // len(groups)), self.seed)

    def members(self, pool) -> tuple:
        """What fixes the pool's members, as one object for equal pools: the
        members as a tuple or, for a pool that nested filters from
        candidates, the inner pool's key with the support bound and the
        filter mask, which keep far fewer objects alive than the members."""
        if pool.source is None:
            fixed = tuple(pool)
        else:
            inner, max_support, mask = pool.source
            fixed = (self.members(inner), max_support, mask)
        return self._members.setdefault(fixed, fixed)

    def check(self, laws, cases, holds_for, describe) -> list[LawReport]:
        """report.check_laws over the cases, sharing the run's memos unless
        a law reads the variant (_READS_VARIANT).  Over enumerated cases,
        the run's reports for these laws over equal cases are replayed; over
        sampled cases, a law is asked only for verdicts the run lacks.  Row-
        local laws (_ROW_LOCAL) are decided row by row, each row's verdict
        kept for the run, or for this call when a law reads the variant.  A
        holds_for of None says that every case holds unread: the cases are
        walked for their count alone."""
        laws = tuple(laws)
        if holds_for is None:
            return check_laws(laws, cases, lambda _: lambda _: True, describe, cases.complete)
        shared = not any(law.startswith(_READS_VARIANT) for law in laws)
        if all(law.startswith(_ROW_LOCAL) for law in laws):
            holds_for = self._by_rows(holds_for, self._row_verdicts if shared else None)
        elif shared and not cases.complete:

            def recalled(case):
                holds = holds_for(case)
                return lambda law: self._recall(law, case, partial(holds, law))

            return check_laws(laws, cases, recalled, describe, False)
        key = cases.key(self.members) if shared else None
        if key is None:
            return check_laws(laws, cases, holds_for, describe, cases.complete)
        reports = self._rows.get((laws, key))
        if reports is None:
            reports = self._rows[laws, key] = check_laws(laws, cases, holds_for, describe)
        # copies: callers rename the law and rewrap the witness
        return [replace(r) for r in reports]

    def _recall(self, law, case, holds) -> bool:
        """holds(), or the verdict the run already has for law on case."""
        key = law, case
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._verdicts[key] = holds()
        return verdict

    def _by_rows(self, holds_for, verdicts=None):
        """holds_for of row-local laws, deciding a case as the AND of its
        rows' verdicts (see _cut).  A row's verdict for a law is taken from
        `verdicts` or decided there once, on the row's one-row case.  With
        no `verdicts`, for a law that reads the variant, they are kept for
        this call only, and a case over a one-element domain is asked as it
        is: within one call its verdict seldom recurs, and keeping every one
        of them cost memory."""
        empty = wm_empty(self.sr)
        local = verdicts is None
        if local:
            verdicts = {}

        def by_rows(case):
            if local and word_size((case[0] if isinstance(case, tuple) else case).dom) == 1:
                return holds_for(case)
            fixed, rows, one_row = _cut(case, empty)
            asked = {}

            def holds(law):
                for row in rows:
                    key = law, fixed, row
                    verdict = verdicts.get(key)
                    if verdict is None:
                        if row not in asked:
                            asked[row] = holds_for(case if one_row is None else one_row(row))
                        verdict = verdicts[key] = asked[row](law)
                    if not verdict:
                        return False
                return True

            return holds

        return by_rows


# ---------------------------------------------------------------------------
# sub-family closure


def variant_closure_reports(
    variant: str,
    sr,
    sizes: Sequence[int] = (0, 1, 2),
    seed: int = 0,
    samples: int = 60,
) -> dict[str, LawReport]:
    """Closure of the sub-family under eta, psi, mu, and pushforward.

    These are preconditions for reading the sub-family as a monad and its
    arrow classes as a category; several catalog pairs fail some of them,
    which is a finding the suite surfaces rather than hides.  At least one
    sample is drawn, so a sampled pass is never a pass over no cases.
    """
    return _closure_reports(_Run([variant], sr, sizes, DEFAULT_BUDGET, seed, samples), variant)


def _closure_reports(run, variant):
    sr = run.sr
    words = [()] + run.words()
    pools = run.maps(variant, words, f"closure-{variant}")
    site = f"{sr.name}-{variant}"
    pairs = [(u, v, f"{_word_name(u)}-{_word_name(v)}") for u in words for v in words]
    nested = {
        w: run.nested(variant, pools[w], run.samples, f"mu-{_word_name(w)}", max_support=3)
        for w in words
    }

    specs = [
        (
            "eta",
            _Pool([(w, x) for w in words for x in word_elements(w)], True),
            lambda c: in_variant(sr, wm_eta(sr, c[1]), variant),
            lambda c: {"word": _word_name(c[0]), "key": list(c[1])},
        ),
        (
            "psi",
            run.grouped_cases(
                [
                    ([pools[u], pools[v]], f"psi-{site}-{uv}", (u, v), ())
                    for u, v, uv in pairs
                ],
                4,
            ),
            lambda c: in_variant(sr, wm_psi(sr, c[2], c[3]), variant),
            lambda c: {
                "words": [_word_name(c[0]), _word_name(c[1])],
                "left": render_map(sr, c[2]),
                "right": render_map(sr, c[3]),
                "image": render_map(sr, wm_psi(sr, c[2], c[3])),
            },
        ),
        (
            # pairs with no functions (into an empty word) are empty groups
            "pushforward",
            run.grouped_cases(
                [
                    ([run.functions(u, v), pools[u]], f"push-{site}-{uv}", (u, v), ())
                    for u, v, uv in pairs
                ],
                4,
            ),
            lambda c: in_variant(sr, wm_pushforward(sr, c[2], c[3]), variant),
            lambda c: {
                "words": [_word_name(c[0]), _word_name(c[1])],
                "function": c[2].describe(),
                "map": render_map(sr, c[3]),
                "image": render_map(sr, wm_pushforward(sr, c[2], c[3])),
            },
        ),
        (
            "mu",
            _keyed(nested),
            lambda c: in_variant(sr, wm_mu(sr, c[1]), variant),
            lambda c: {
                "word": _word_name(c[0]),
                "outer": render_map(sr, c[1]),
                "image": render_map(sr, wm_mu(sr, c[1])),
            },
        ),
    ]
    return {
        name: report
        for name, cases, holds, describe in specs
        for report in run.check([f"closure/{name}"], cases, lambda c: lambda _: holds(c), describe)
    }


# ---------------------------------------------------------------------------
# monad laws


class _BoundOps:
    """A run's MonadOps bound to its semiring for one law-suite call.

    eta(x), mu(H), psi(h, k) and push(f, h) evaluate afresh; psi0 is the
    unit pairing.  mu_once[H], psi_once[h, k] and push_once[f, h] are
    _memos that evaluate each distinct application once per call, a hit
    costing one dict lookup, so the equations use them only on arguments
    that recur across cases: pool maps and the _TableFns of the call's
    function pairs, never a per-case lambda.
    """

    def __init__(self, sr, ops):
        self.eta = partial(ops.eta, sr)
        self.mu = partial(ops.mu, sr)
        self.psi = partial(ops.psi, sr)
        self.push = partial(ops.pushforward, sr)
        self.psi0 = wm_psi0(sr)
        self.mu_once = _memo1(self.mu)
        self.psi_once = _memo(self.psi)
        self.push_once = _memo(self.push)


def _law_holds(table, m, case, law):
    """Whether the row of law in table holds on the case, through m.  A
    suite's predicate is partial(partial, _law_holds, table, m): it makes
    each case's predicate with no Python frame of its own."""
    return table[law](m, *case)


# The monad-level equations, one per report row: a predicate over the row's
# case slots, evaluated through the call's _BoundOps m.  A case is a word
# (u, w) followed by maps (h, k, h1, h2, h3), nested maps (H, K), _TableFns
# (f, g, and fg = f x g), keys (x, y) or a word length n.
_EQUATIONS = {
    # unit laws and associativity of mu (H a triple nesting)
    "monad/mu-unit-left": lambda m, w, h: m.mu(m.eta(h)) == h,
    "monad/mu-unit-right": lambda m, w, h: m.mu(m.push(m.eta, h)) == h,
    "monad/mu-assoc": lambda m, w, H: m.mu(m.mu(H)) == m.mu(m.push(m.mu, H)),
    # naturality
    "monad/eta-natural": lambda m, u, f, x: m.push(f, m.eta(x)) == m.eta(f(x)),
    "monad/mu-natural": lambda m, u, f, H: (
        m.push(f, m.mu_once[H]) == m.mu(m.push(lambda h: m.push_once[f, h], H))
    ),
    "monad/psi-natural": lambda m, u, f, g, h, k, fg: (
        m.psi_once[m.push_once[f, h], m.push_once[g, k]] == m.push(fg, m.psi_once[h, k])
    ),
    # lax structure: associativity, unit squares, symmetry
    "monad/lax-assoc": lambda m, w, h1, h2, h3: (
        m.psi(m.psi_once[h1, h2], h3) == m.psi(h1, m.psi_once[h2, h3])
    ),
    "monad/lax-unit-left": lambda m, w, h: m.psi(m.psi0, h) == h,
    "monad/lax-unit-right": lambda m, w, h: m.psi(h, m.psi0) == h,
    "monad/symmetry": lambda m, u, h, k, n: (
        m.psi(h, k) == m.push(lambda key: key[n:] + key[:n], m.psi(k, h))
    ),
    # commutative-monad squares
    "monad/commutative-1": lambda m, u, x, y: m.psi(m.eta(x), m.eta(y)) == m.eta(x + y),
    "monad/commutative-2": lambda m, w, H, K: (
        m.mu(m.push(lambda hk: m.psi(hk[0], hk[1]), m.psi(H, K))) == m.psi(m.mu(H), m.mu(K))
    ),
    # the commuting diagrams of the monad flags, over (word, map)
    "monadflag/affine-diagram": lambda m, w, h: m.push(lambda _: (), h) == m.eta(()),
    "monadflag/relevant-diagram": lambda m, w, h: m.psi(h, h) == m.push(lambda k: k + k, h),
    "monadflag/domain-preserving-diagram": lambda m, w, h: (
        m.push(lambda k, n=len(w): k[:n], m.psi(h, h)) == h
    ),
    "monadflag/mass-preserving-diagram": lambda m, w, h: (
        m.push(lambda _: (), m.psi(h, h)) == m.push(lambda _: (), h)
    ),
    "monadflag/unital-diagram": lambda m, w, h: m.psi(h, h) == h,
}


def check_monad_laws(
    variant: str,
    sr,
    sizes: Sequence[int] = (1, 2),
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    samples: int = 160,
    ops: MonadOps = DEFAULT_OPS,
) -> list[LawReport]:
    """Monad and lax symmetric monoidal axioms for the variant over sr.

    Small finite carriers are exhausted (triple nestings bounded to outer
    support three); infinite carriers run `samples` seeded checks per law.
    All structure is evaluated through `ops` so a planted broken operation
    is caught by the corresponding law.  Sub-family closure does not go
    through `ops`; its rows come from variant_closure_reports.

    Each law is its row of _EQUATIONS, and the sharing is written there:
    an application spelled *_once is evaluated once per distinct arguments
    per call.  So psi-natural and lax-assoc share psi_once, psi-natural and
    mu-natural share push_once, and mu-natural takes each mu_once[H] once;
    every other application is evaluated afresh.
    """
    return _monad_laws(_Run([variant], sr, sizes, budget, seed, samples, ops), variant)


def _monad_laws(run, variant):
    sr = run.sr
    words = run.words()
    pools = run.maps(variant, words, f"laws-{variant}")
    per_pool = max(8, run.samples // 4)
    nested = {w: run.nested(variant, pools[w], per_pool, f"L2-{_word_name(w)}") for w in words}
    outer = {
        w: run.nested(variant, nested[w], per_pool, f"L3-{_word_name(w)}", max_support=3)
        for w in words
    }
    site = f"{sr.name}-{variant}"
    name = _word_name
    fn_pairs = [(u, v, fn) for u in words for v in words for fn in run.functions(u, v)]

    def per_word(tag, over=pools):
        groups = [([over[w]], f"{tag}-{site}-{name(w)}", (w,), ()) for w in words]
        return run.grouped_cases(groups, 4)

    def mdescribe(c):
        parts = {"word": name(c[0])}
        for i, item in enumerate(c[1:]):
            if isinstance(item, WeightMap):
                parts[f"arg{i}"] = render_map(sr, item)
            elif isinstance(item, _TableFn):
                parts[f"arg{i}"] = item.describe()
            else:
                parts[f"arg{i}"] = _json_safe(item)
        return parts

    # (law, cases, describe), in report order
    specs = [
        ("monad/mu-unit-left", per_word("mu-unit-left"), mdescribe),
        ("monad/mu-unit-right", per_word("mu-unit-right"), mdescribe),
        ("monad/mu-assoc", per_word("mu-assoc", outer), mdescribe),
        (
            "monad/eta-natural",
            _Pool([(u, fn, x) for u, _, fn in fn_pairs for x in word_elements(u)], True, ()),
            lambda c: {"word": name(c[0]), "function": c[1].describe(), "key": list(c[2])},
        ),
        (
            "monad/mu-natural",
            run.grouped_cases(
                [
                    (
                        [nested[u]],
                        f"mu-nat-{site}-{name(u)}-{name(v)}",
                        (u, fn),
                        (),
                    )
                    for u, v, fn in fn_pairs
                ],
                2,
            ),
            mdescribe,
        ),
        (
            # the last case item is fn x gn, built once per run
            "monad/psi-natural",
            run.grouped_cases(
                [
                    (
                        [pools[u1], pools[u2]],
                        f"psi-nat-{site}-{name(u1)}{name(v1)}{name(u2)}{name(v2)}",
                        (u1, fn, gn),
                        (run.tensor(fn, gn),),
                    )
                    for u1, v1, fn in fn_pairs
                    for u2, v2, gn in fn_pairs
                ],
                1,
            ),
            lambda c: {
                "word": name(c[0]),
                "left_fn": c[1].describe(),
                "right_fn": c[2].describe(),
                "left": render_map(sr, c[3]),
                "right": render_map(sr, c[4]),
            },
        ),
        (
            "monad/lax-assoc",
            run.grouped_cases(
                [
                    (
                        [pools[a], pools[b], pools[c]],
                        f"lax-assoc-{site}-{name(a)}{name(b)}{name(c)}",
                        (a,),
                        (),
                    )
                    for a in words
                    for b in words
                    for c in words
                ],
                1,
            ),
            mdescribe,
        ),
        ("monad/lax-unit-left", per_word("lax-unit"), mdescribe),
        ("monad/lax-unit-right", per_word("lax-unit-right"), mdescribe),
        (
            "monad/symmetry",
            run.grouped_cases(
                [
                    (
                        [pools[u], pools[v]],
                        f"symmetry-{site}-{name(u)}-{name(v)}",
                        (u,),
                        (len(v),),
                    )
                    for u in words
                    for v in words
                ],
                2,
            ),
            mdescribe,
        ),
        (
            "monad/commutative-1",
            _Pool(
                [
                    (u, x, y)
                    for u in words
                    for v in words
                    for x in word_elements(u)
                    for y in word_elements(v)
                ],
                True,
                (),
            ),
            lambda c: {"word": name(c[0]), "left_key": list(c[1]), "right_key": list(c[2])},
        ),
        (
            "monad/commutative-2",
            run.grouped_cases(
                [
                    (
                        [nested[w], nested[w]],
                        f"comm2-{site}-{name(w)}",
                        (w,),
                        (),
                        _collision_pair(sr, variant, pools[w]),
                    )
                    for w in words
                ],
                4,
            ),
            mdescribe,
        ),
    ]
    equations = partial(partial, _law_holds, _EQUATIONS, _BoundOps(sr, run.ops))
    return [
        report
        for law, cases, describe in specs
        for report in run.check([law], cases, equations, describe)
    ]


def _collision_pair(sr, variant, pool):
    """A (H, H) pair whose psi image collides two distinct key pairs.

    H = {h: 1, 2h: 1} pairs h with 2h both ways round, and both pairings
    give the same map, so the pushforward along psi merges their weights; a
    mu that ignores outer weights then disagrees with psi of the
    flattenings.  Only available when 2 differs from 1 and 2h and H are
    variant members.
    """
    two = sr.add(sr.one, sr.one)
    if two == sr.one or two == sr.zero or not pool:
        return ()
    base = next((h for h in pool if len(h) == 1 and h.entries[0][1] == sr.one), None)
    if base is None:
        return ()
    doubled = WeightMap(sr, {base.entries[0][0]: two})
    H = WeightMap(sr, {base: sr.one, doubled: sr.one})
    if in_variant(sr, doubled, variant) and in_variant(sr, H, variant):
        return ((H, H),)
    return ()


# ---------------------------------------------------------------------------
# monad-level classification


def _idempotent_orthogonal(sr, h, variant):
    """Pointwise criterion of relevant: idempotent, pairwise orthogonal values."""
    return all(sr.mul(v, v) == v for _, v in h.entries) and all(
        sr.mul(v, w) == sr.zero for (x, v), (y, w) in product(h.entries, repeat=2) if x != y
    )


def _invertible_total(sr, h, variant):
    """Pointwise criterion of weakly_affine: the total has an inverse whose
    unit-word map is a variant member."""
    inv = mul_inverse(sr, wm_total(sr, h))
    return inv is not None and in_variant(sr, WeightMap(sr, {(): inv}), variant)


# Each monad flag once: flag -> (law stem, pointwise criterion, pointwise
# cases, diagram cases, closure preconditions).  The criterion is a
# sub-family the map must belong to, or a test asked like in_variant with
# the run's variant.  Cases are the pool maps over the unit word ("unit")
# or over every word ("all").  The diagram oracle is the
# monadflag/<stem>-diagram row of _EQUATIONS, except weakly-affine's, which
# asks for an antipode in the sub-family and so is not an equation.
# Agreement of the two oracles is asserted only where the closure reports
# the diagram relies on pass.
_FLAG_TABLE = {
    "affine": ("affine", "Ma", "unit", "all", ("eta", "psi", "pushforward")),
    "relevant": ("relevant", _idempotent_orthogonal, "all", "all", ("psi", "pushforward")),
    "domain_preserving": ("domain-preserving", "Md", "all", "all", ("psi", "pushforward")),
    "mass_preserving": ("mass-preserving", "Mm", "all", "all", ("psi", "pushforward")),
    "unital_domain_preserving": ("unital", "Mm", "unit", "unit", ("psi",)),
    "weakly_affine": ("weakly-affine", _invertible_total, "unit", "unit", ("eta", "psi")),
}

MONAD_FLAGS = tuple(_FLAG_TABLE)


def classify_monad(
    variant: str,
    sr,
    sizes: Sequence[int] = (0, 1, 2),
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    samples: int = 60,
    ops: MonadOps = DEFAULT_OPS,
) -> MonadClassification:
    """Functor-class flags, each decided by a pointwise criterion and by the
    corresponding commuting diagram evaluated with psi and pushforwards.

    The diagram verdict is the operative flag value.  The two verdicts are
    expected to agree whenever the sub-family is closed under the structure
    the diagram uses; `well_posed` records that precondition per flag.
    """
    return _classify_monad(_Run([variant], sr, sizes, budget, seed, samples, ops), variant)


def _classify_monad(run, variant):
    sr = run.sr
    m = _BoundOps(sr, run.ops)
    # drawn on its own, the unit word's pool keeps its own completeness
    unit = run.maps(variant, [()], f"flags-{variant}")
    pools = {**unit, **run.maps(variant, run.words(), f"flags-{variant}")}
    cases = {"unit": _keyed(unit), "all": _keyed(pools)}
    closure = _closure_reports(run, variant)

    def weakly_affine(m, w, s):
        if not len(s):
            return m.psi(s, s) == m.eta(())
        try:
            antipode = wm_antipode(sr, s)
        except WeightMapError:
            return False
        return in_variant(sr, antipode, variant) and m.psi(s, antipode) == m.eta(())

    diagrams = {**_EQUATIONS, "monadflag/weakly-affine-diagram": weakly_affine}
    diagram = partial(partial, _law_holds, diagrams, m)

    def describe(c):
        return {"word": _word_name(c[0]), "map": render_map(sr, c[1])}

    flags: dict[str, FlagVerdict] = {}
    for flag, (stem, pointwise, p_kind, d_kind, preconditions) in _FLAG_TABLE.items():
        test, family = (
            (in_variant, pointwise) if isinstance(pointwise, str) else (pointwise, variant)
        )
        [p_report] = run.check(
            [f"monadflag/{stem}-pointwise"],
            cases[p_kind],
            lambda c: lambda _: test(sr, c[1], family),
            describe,
        )
        [d_report] = run.check([f"monadflag/{stem}-diagram"], cases[d_kind], diagram, describe)
        flags[flag] = FlagVerdict(
            p_report, d_report, all(closure[n].passed for n in preconditions)
        )
    return MonadClassification(
        variant=variant, semiring=sr.name, flags=flags, closure=closure
    )


# ---------------------------------------------------------------------------
# Kleisli-level classification


def check_gsm_axioms(sr, words: Sequence[Word], pairs) -> dict[str, LawReport]:
    """Structural axioms of the copy/discard fragment at the given words: the
    gsm/ rows of the law table (diagram.LAW_TABLE).

    Unary axioms are checked at every word, the tensor-multiplicativity
    axioms at every given pair (u, v); the unit object gets one dedicated case.
    """
    return _gsm_reports(Structure(load_semiring(sr)), [tuple(w) for w in words], pairs)


def _gsm_reports(st, words, pairs):
    reports = [
        *_word_reports(
            st,
            (
                "gsm/copy-coassoc",
                "gsm/copy-cocomm",
                "gsm/copy-counit-right",
                "gsm/copy-counit-left",
            ),
            words,
        ),
        *check_laws(
            ("gsm/copy-tensor-mult", "gsm/del-tensor-mult"),
            pairs,
            lambda p: _LawCase(st, {"A": p[0], "B": p[1]}).holds,
            lambda p: {"words": [_word_name(p[0]), _word_name(p[1])]},
        ),
        *_word_reports(st, ("gsm/unit-object",), [()]),
    ]
    return {r.law: r for r in reports}


def _word_reports(st, laws, words):
    """Law-table rows over words bound to the sort A, witnessed by the word."""
    return check_laws(
        laws, words, lambda w: _LawCase(st, {"A": w}).holds, lambda w: {"word": _word_name(w)}
    )


def classify_kleisli(
    variant: str,
    sr,
    sizes: Sequence[int] = (0, 1, 2),
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    samples: int = 40,
) -> KleisliClassification:
    """Per-arrow category flags quantified over variant arrows.

    markov / restriction / domain_category / mass_category aggregate the
    four per-arrow equations; weakly_markov asks the scalar hom-monoids to
    be groups, building each inverse row by row through mul_inverse.  Every
    flag is the verdict of its report.
    """
    return _classify_kleisli(_Run([variant], sr, sizes, budget, seed, samples), variant)


def _classify_kleisli(run, variant):
    arrows = run.arrow_grid(variant, run.samples, "classify-{variant}-{ds}x{cs}")
    flag_reports = run.check(
        _FLAG_LAWS.values(),
        arrows,
        lambda f: _arrow_case(run.st, f).holds,
        lambda f: {"sizes": [f.dom[0].size, f.cod[0].size], "arrow": wrel_to_doc(run.sr, f)},
    )
    reports = {}
    for equation, r in zip(_FLAG_LAWS, flag_reports):
        if not r.passed:
            r.witness = {"equation": equation, **r.witness}
        reports[r.law.removeprefix("kleisli/").replace("-", "_")] = r

    reports["weakly_markov"] = _weakly_markov_report(run, variant)
    return KleisliClassification(
        variant=variant,
        semiring=run.sr.name,
        reports=reports,
        gsm_reports=run.gsm,
        composition_closure=_composition_closure_report(run, variant),
    )


def _weakly_markov_report(run, variant):
    """Group check for the scalar hom-monoids: every arrow Y -> I needs an
    inverse under pointwise scalar multiplication."""
    sr = run.sr
    cases = _keyed(
        {
            ds: run.arrows(variant, (FinSet("Y", ds),), (), run.samples, f"wmarkov-{variant}-{ds}")
            for ds in run.sizes
        }
    )

    def holds(c):
        f, g = c[1], _hom_inverse(sr, variant, c[1])
        return g is not None and _LawCase(run.st, {"Y": f.dom}, {"f": f, "g": g}).holds(
            "kleisli/weakly-markov"
        )

    def describe(c):
        witness = {"dom_size": c[0], "arrow": wrel_to_doc(sr, c[1])}
        if _hom_inverse(sr, variant, c[1]) is None:
            witness["reason"] = "no inverse under the scalar multiplication"
        return witness

    [report] = run.check(["kleisli/weakly-markov"], cases, lambda c: lambda _: holds(c), describe)
    return report


def _hom_inverse(sr, variant, f: WRel):
    """Inverse of f: Y -> I under pointwise scalar multiplication, built row
    by row from mul_inverse; None if a weight has no inverse or the result
    is not a variant arrow."""
    rows = {}
    for x in word_elements(f.dom):
        inv = mul_inverse(sr, f.value(sr, x, ()))
        if inv is None:
            return None
        rows[x] = wm_make(sr, {(): inv})
    g = WRel(f.dom, (), rows)
    return g if arrow_in_variant(sr, g, variant) else None


def _composition_closure_report(run, variant):
    """Composites of variant arrows should have variant rows.  Every arrow
    is an M arrow, so under M each case holds unread."""
    sr = run.sr
    triples = list(product(run.sizes, repeat=3))
    n = max(2, run.samples // len(triples))
    X, Y, Z = (dict(zip(run.sizes, run.words(name))) for name in "XYZ")
    cases = run.grouped_cases(
        [
            (
                [
                    run.arrows(variant, X[a], Y[b], n, f"compclo-f-{a}{b}{c}"),
                    run.arrows(variant, Y[b], Z[c], n, f"compclo-g-{a}{b}{c}"),
                ],
                f"compclo-{sr.name}-{variant}-{a}{b}{c}",
                (),
                (),
            )
            for a, b, c in triples
        ],
        2,
    )
    [report] = run.check(
        ["closure/composition"],
        cases,
        None
        if variant == "M"
        else lambda c: lambda _: arrow_in_variant(sr, wrel_compose(sr, c[0], c[1]), variant),
        lambda c: {
            "left": wrel_to_doc(sr, c[0]),
            "right": wrel_to_doc(sr, c[1]),
            "composite": wrel_to_doc(sr, wrel_compose(sr, c[0], c[1])),
        },
    )
    return report


# ---------------------------------------------------------------------------
# dom crosschecks and structural lemmas


def crosscheck_dom_paths(
    sr,
    variant: str = "M",
    sizes: Sequence[int] = (0, 1, 2),
    seed: int = 0,
    samples: int = 100,
) -> tuple[LawReport, LawReport]:
    """Two independent recomputations of dom-related composites.

    closed-form: the structural dom composite equals the diagonal of row
    totals.  monad-path: dom(f);f computed by matrix composition equals the
    same arrow computed through psi and pushforwards row by row.
    """
    return _crosscheck(_Run([variant], sr, sizes, DEFAULT_BUDGET, seed, samples), variant)


def _crosscheck(run, variant):
    sr = run.sr
    arrows = run.arrow_grid(variant, run.samples, "domx-{variant}-{ds}x{cs}")
    dom = _memo1(run.st.dom)
    checks = {
        "crosscheck/dom-closed-form": lambda f: wrel_eq(dom(f), wrel_dom_closed(sr, f)),
        "crosscheck/dom-monad-path": lambda f: wrel_eq(
            wrel_compose(sr, dom(f), f), wrel_dom_via_kleisli_path(sr, f)
        ),
    }
    reports = run.check(
        checks, arrows, lambda f: lambda law: checks[law](f), lambda f: wrel_to_doc(sr, f)
    )
    return tuple(reports)


def _structural_reports(run, variant, domain_category):
    """dom is invariant under post-discharge and post-copy for every arrow;
    the pre-copy variant is a lemma whose hypothesis is domain_category, so
    it is reported under gated/ where that flag fails."""
    arrows = run.arrow_grid(
        variant, max(4, run.samples // len(run.sizes) ** 2), "structural-{variant}-{ds}x{cs}"
    )
    reports = run.check(
        (
            "structural/dom-after-discharge",
            "structural/dom-after-copy",
            "structural/dom-before-copy",
        ),
        arrows,
        lambda f: _arrow_case(run.st, f).holds,
        lambda f: wrel_to_doc(run.sr, f),
    )
    if not domain_category:
        reports[-1].law = "gated/dom-before-copy"
    return reports


def _hom_monoid_reports(run, variant):
    """Monoid laws of the scalar hom-sets under pointwise multiplication."""
    sr = run.sr
    n = max(4, run.samples // len(run.sizes))
    site = f"{sr.name}-{variant}"
    pools = {
        ds: run.arrows(variant, (FinSet("Y", ds),), (), n, f"homm-{variant}-{ds}")
        for ds in run.sizes
    }
    assoc, comm = (
        run.grouped_cases(
            [([pool] * k, f"homm-{law}-{site}-{ds}", (), ()) for ds, pool in pools.items()], 4
        )
        for k, law in ((3, "assoc"), (2, "comm"))
    )
    unit = _Pool(
        ((f,) for pool in pools.values() for f in pool),
        all(pool.complete for pool in pools.values()),
        list(pools.values()),
    )

    def case(c):
        return _LawCase(run.st, {"Y": c[0].dom}, dict(zip("fgh", c))).holds

    def docs(c):
        return [wrel_to_doc(sr, f) for f in c]

    return [
        report
        for law, cases, describe in (
            ("homm/mul-assoc", assoc, docs),
            ("homm/mul-comm", comm, docs),
            ("homm/mul-unit", unit, lambda c: wrel_to_doc(sr, c[0])),
        )
        for report in run.check([law], cases, case, describe)
    ]


def _cansem_reports(run):
    """The canonical semigroup id x del: special over every word, the
    two-set word included, and the identity on the unit object."""
    words = [()] + run.words() + [(FinSet("X", run.sizes[-1]), FinSet("Y", run.sizes[0]))]
    return (
        *_word_reports(run.st, ("cansem/special-semigroup",), words),
        *_word_reports(run.st, ("cansem/unit-monoid",), [()]),
    )


# ---------------------------------------------------------------------------
# the theorem suite

# Iff claims between conjunctions of monad and Kleisli flags:
# (law, lhs flags, rhs flags, lhs witness key, rhs witness key, gate).
# A gated claim is asserted only where its gate holds (see _pair_entries)
# and is reported under gated/ elsewhere.
_THEOREMS = (
    (
        "domain-preserving-vs-domain-category",
        ("domain_preserving",),
        ("domain_category",),
        "monad_domain_preserving",
        "kleisli_domain_category",
        None,
    ),
    (
        "mass-preserving-vs-mass-category",
        ("mass_preserving",),
        ("mass_category",),
        "monad_mass_preserving",
        "kleisli_mass_category",
        None,
    ),
    (
        "unital-vs-mass-category",
        ("unital_domain_preserving",),
        ("mass_category",),
        "monad_unital_domain_preserving",
        "kleisli_mass_category",
        "category",
    ),
    (
        "weakly-affine-and-unital-vs-affine",
        ("weakly_affine", "unital_domain_preserving"),
        ("affine",),
        "weakly_affine_and_unital",
        "affine",
        "functor",
    ),
    (
        "markov-decomposition",
        ("markov",),
        ("weakly_markov", "mass_category"),
        "markov",
        "weakly_markov_and_mass_category",
        "category",
    ),
)

# Implications between flags, checked at every pair: (law, antecedent, consequent).
_IMPLICATIONS = (
    ("markov-implies-domain-category", "markov", "domain_category"),
    ("restriction-implies-domain-category", "restriction", "domain_category"),
    ("domain-implies-mass", "domain_preserving", "mass_preserving"),
    ("mass-implies-unital", "mass_preserving", "unital_domain_preserving"),
    ("affine-implies-domain-preserving", "affine", "domain_preserving"),
    ("relevant-implies-domain-preserving", "relevant", "domain_preserving"),
)


def _entry(report: LawReport, variant: str, semiring: str) -> SuiteEntry:
    return SuiteEntry(
        law=report.law,
        variant=variant,
        semiring=semiring,
        status=report.status,
        witness=report.witness,
        checks_performed=report.checks_performed,
    )


def _claim_entry(law, variant, semiring, holds, exhaustive, witness, checks) -> SuiteEntry:
    if holds:
        status = EXHAUSTIVE_PASS if exhaustive else SAMPLED_PASS
        return SuiteEntry(law, variant, semiring, status, None, checks)
    return SuiteEntry(law, variant, semiring, COUNTEREXAMPLE, witness, checks)


def run_theorem_suite(
    semirings: Sequence = CATALOG,
    variants: Sequence[str] = VARIANTS,
    sizes: Sequence[int] = (0, 1, 2),
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    samples: int = 24,
    ops: MonadOps = DEFAULT_OPS,
) -> list[SuiteEntry]:
    """Instance-level consistency of the classifications, per pair.

    Asserted claims become regular entries whose counterexamples signal an
    implementation bug or a genuine refutation.  Claims whose hypotheses
    fail at a pair (sub-family closure, ambient domain category) are
    emitted under the gated/ prefix with the observed values instead.
    The check_monad_laws rows of each pair are folded in, which is what
    routes an injected broken operation into a blocking entry.  Every law
    family draws `samples` clamped to `budget`.  A repeated variant runs
    once.  Rows are keyed by semiring name, so two specs that load to one
    name (say "bool" and "boolean") raise SuiteArgumentError before any row is
    computed.
    """
    loaded = [load_semiring(spec) for spec in semirings]
    names = [sr.name for sr in loaded]
    for name in names:
        if names.count(name) > 1:
            raise SuiteArgumentError(f"semiring {name!r} is given twice")
    variants = list(dict.fromkeys(variants))
    entries: list[SuiteEntry] = []
    for spec in loaded:
        run = _Run(variants, spec, sizes, budget, seed, samples, ops)
        sr = run.sr
        profile = classify_semiring(sr, seed=seed)
        shared = [*run.gsm.values(), *_cansem_reports(run)]
        entries.extend(_entry(report, "-", sr.name) for report in shared)

        per_variant: dict[str, tuple[MonadClassification, KleisliClassification]] = {}
        for variant in variants:
            mc = _classify_monad(run, variant)
            kc = _classify_kleisli(run, variant)
            per_variant[variant] = (mc, kc)
            entries.extend(_entry(report, variant, sr.name) for report in _monad_laws(run, variant))
            entries.extend(_pair_entries(run, variant, mc, kc))

        if profile.distributive_lattice and "M" in per_variant and "Md" in per_variant:
            entries.append(_coincidence_entry(run, per_variant["M"], per_variant["Md"]))
    return entries


def _pair_entries(run, variant, mc, kc) -> list[SuiteEntry]:
    sr = run.sr
    closure = {**mc.closure, "composition": kc.composition_closure}
    names = ("eta", "psi", "mu", "pushforward", "composition")
    entries = [_entry(closure[name], variant, sr.name) for name in names]
    failed_closures = [name for name in names if not closure[name].passed]
    functor_ok = all(closure[name].passed for name in ("eta", "psi", "pushforward"))
    category_ok = not failed_closures

    # dual-oracle agreement per monad flag
    for flag in MONAD_FLAGS:
        fv = mc.flags[flag]
        agree = fv.consistent
        witness = None
        if not agree or not fv.well_posed:
            witness = {
                "pointwise": {"passed": fv.pointwise.passed, "witness": fv.pointwise.witness},
                "diagram": {"passed": fv.diagram.passed, "witness": fv.diagram.witness},
            }
            if not fv.well_posed:
                witness["failed_preconditions"] = [
                    n for n in _FLAG_TABLE[flag][-1] if not closure[n].passed
                ]
        entries.append(
            _claim_entry(
                f"oracle/{flag}-agreement" if fv.well_posed else f"gated/oracle-{flag}-agreement",
                variant,
                sr.name,
                agree,
                fv.pointwise.exhaustive and fv.diagram.exhaustive,
                witness,
                fv.pointwise.checks_performed + fv.diagram.checks_performed,
            )
        )

    flags = {**mc.flag_values(), **kc.flag_values()}
    exact = {name: fv.diagram.exhaustive for name, fv in mc.flags.items()}
    exact.update((name, r.exhaustive) for name, r in kc.reports.items())
    gates = {
        None: True,
        "functor": functor_ok,
        "category": category_ok,
    }
    for law, lhs_flags, rhs_flags, lhs_key, rhs_key, gate in _THEOREMS:
        lhs = all(flags[name] for name in lhs_flags)
        rhs = all(flags[name] for name in rhs_flags)
        witness = None
        if lhs != rhs or not gates[gate]:
            witness = {lhs_key: lhs, rhs_key: rhs}
            if not gates[gate]:
                witness["failed_preconditions"] = failed_closures
        entries.append(
            _claim_entry(
                f"theorem/{law}" if gates[gate] else f"gated/{law}",
                variant,
                sr.name,
                lhs == rhs,
                all(exact[name] for name in lhs_flags + rhs_flags),
                witness,
                1,
            )
        )

    for law, antecedent, consequent in _IMPLICATIONS:
        holds = not flags[antecedent] or flags[consequent]
        witness = None if holds else {antecedent: True, consequent: False}
        entries.append(
            _claim_entry(f"implication/{law}", variant, sr.name, holds, False, witness, 1)
        )

    entries.extend(
        _entry(report, variant, sr.name)
        for report in (
            *_hom_monoid_reports(run, variant),
            *_structural_reports(run, variant, flags["domain_category"]),
            *_crosscheck(run, variant),
        )
    )
    return entries


def _coincidence_entry(run, m_pair, md_pair) -> SuiteEntry:
    """Distributive lattices collapse the absorptive sub-family onto the
    whole monad: same arrows, same classifications."""
    sr = run.sr
    mc_m, kc_m = m_pair
    mc_md, kc_md = md_pair
    # scanned cell by cell, M's arrows X(ds) -> Y(cs) before Md's: the order
    # fixes the witness and the check count
    X, Y = (dict(zip(run.sizes, run.words(name))) for name in "XY")
    arrows = _keyed(
        {
            (ds, cs, missing_from): run.arrows(
                variant, X[ds], Y[cs], run.samples, f"coin-{variant.lower()}-{ds}{cs}"
            )
            for ds, cs in product(run.sizes, repeat=2)
            for variant, missing_from in (("M", "Md"), ("Md", "M"))
        }
    )
    checks = 0
    witness = None
    for (ds, cs, missing_from), f in arrows:
        checks += 1
        if not arrow_in_variant(sr, f, missing_from):
            witness = {"sizes": [ds, cs], "missing_from": missing_from, "arrow": wrel_to_doc(sr, f)}
            break
    else:
        checks += 2
        if mc_m.flag_values() != mc_md.flag_values():
            witness = {"monad_flags_M": mc_m.flag_values(), "monad_flags_Md": mc_md.flag_values()}
        elif kc_m.flag_values() != kc_md.flag_values():
            witness = {
                "kleisli_flags_M": kc_m.flag_values(),
                "kleisli_flags_Md": kc_md.flag_values(),
            }
    return _claim_entry(
        "coincidence/m-equals-md", "-", sr.name, witness is None, arrows.complete, witness, checks
    )


# ---------------------------------------------------------------------------
# report rendering


def suite_failures(entries: Sequence[SuiteEntry]) -> list[SuiteEntry]:
    return [e for e in entries if e.blocking]


def entries_to_jsonl(entries: Sequence[SuiteEntry]) -> str:
    return "".join(json.dumps(e.to_doc(), separators=(", ", ": ")) + "\n" for e in entries)


def entries_to_table(entries: Sequence[SuiteEntry]) -> str:
    lines = []
    header = f"{'law':<46} {'variant':<8} {'semiring':<18} {'status':<16} checks"
    lines.append(header)
    lines.append("-" * len(header))
    for e in entries:
        lines.append(
            f"{e.law:<46} {e.variant:<8} {e.semiring:<18} {e.status:<16} {e.checks_performed}"
        )
    failures = suite_failures(entries)
    informational = [
        e
        for e in entries
        if e.status == COUNTEREXAMPLE and not e.blocking
    ]
    lines.append("-" * len(header))
    lines.append(
        f"{len(entries)} entries, {len(failures)} failures, "
        f"{len(informational)} informational findings"
    )
    for e in failures:
        lines.append(f"FAIL {e.law} [{e.variant}, {e.semiring}] witness={_json_safe(e.witness)}")
    for e in informational:
        lines.append(
            f"INFO {e.law} [{e.variant}, {e.semiring}] witness={_json_safe(e.witness)}"
        )
    return "\n".join(lines) + "\n"
