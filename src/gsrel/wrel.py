"""Weighted relations: the category of finite-set words and matrix arrows.

An arrow X -> Y stores one WeightMap over the codomain product per domain
element with nonzero support; composition is the semiring matrix product

    (f ; g)(x, z) = sum over y of f(x, y) * g(y, z)

and the tensor is the Kronecker product on concatenated words.  Both call
the semiring's add and mul per cell, except over a semiring that names a
plain_type, the number type whose + and x its add and mul are (int on nat,
Fraction on nonneg-rational).  There _compose_over_ints composes by
Kronecker substitution: the rows of g are packed into big integers, one
fixed-width slot per column, after each is put over the lcm of its
denominators, so a row of f ; g costs one big-integer multiply-add per
entry of f and an unpack; a row of f with one entry just multiplies, and
with weight 1 is g's row itself.  The packing needs values >= 0 and
refuses a negative one with WeightMapError.  Over Fraction, the tensor
puts each row over the lcm of its denominators once and makes one
Fraction per cell.
The unit object is the empty word, whose product has the single element ().
Words are strict: tensoring is tuple concatenation, so unitors and
associators are identities on index tuples and never appear at runtime.

Structural arrows: wrel_copy duplicates an index tuple, wrel_del maps it
to (), wrel_swap exchanges two blocks.  A Structure holder builds each of
these once per word and keeps it for as long as the holder lives: one
semiring's run of the law suites, or one diagram query.  Over its arrows
it defines dom by its defining composite copy ; (id x (f ; del)), and mass
as f ; del; wrel_dom and wrel_mass run them on a fresh holder.  A composite
into a tensor, f ; (a x b), reads only the rows of a x b at the column keys
of f, and _compose_tensor builds only those, with the row kernel of
wrel_tensor, then composes through wrel_compose.  dom is one instance, copy
reading the rows (x, x) of id x (f ; del); the diagram evaluator composes
so into every tensor it has not built whole.  The closed form of dom (the
row total on the diagonal) is exposed separately as an independent oracle.
The scalar product of arrows into the unit, the canonical semigroup and the
per-arrow flags are terms and equations of the law table in gsrel.diagram:
hom_scalar_mul, canonical_semigroup_mul and wrel_classify evaluate them
there.

Invariant: every row key of an arrow is an element of its domain word and
every entry key an element of its codomain word.  Keys are checked once,
where they enter: by WRel(...), which wrel_make, the dom oracles and any
caller use, and by the checking pass of wrel_from_doc, whose label lookups
prove each key, and whose memos hold only label tuples that index_of has
accepted.  Its build step, which an interpretation runs only for the
generators a query reads, wrel_compose, wrel_tensor (and the rows of a
tensor that _compose_tensor builds), the structural builders (id, copy, del,
swap), enumerate_arrows and sample_arrows keep the invariant by
construction, from checked keys or from word_elements, and build through
WRel._canonical without checking again.
"""
from __future__ import annotations

import struct
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, islice, product, repeat
from math import lcm
from operator import floordiv, mul
from typing import NamedTuple

from .report import derive_rng
from .semiring import Semiring
from .weightmap import (
    FinSet,
    WeightMap,
    WeightMapError,
    Word,
    _enumerable,
    _sampled_members,
    in_variant,
    enumerate_maps,
    wm_empty,
    wm_eta,
    wm_make,
    wm_psi,
    wm_pushforward,
    wm_total,
    word_contains,
    word_elements,
    word_labels,
    word_size,
)


class BoundaryError(ValueError):
    pass


class WRelFormatError(ValueError):
    pass


class WRel:
    """Immutable arrow between words; rows are canonical and zero-free.

    Invariant: every row key is an element of the domain word and every
    entry key of a row is an element of the codomain word.  WRel(...)
    checks this for each key it is given, and wrel_from_doc for each label
    it reads; WRel(...) also refuses a row key given twice, empty or not.
    WRel._canonical skips the check and serves only builders whose keys
    are elements by construction: wrel_compose, wrel_tensor, the
    structural arrows and the arrow pools (see the module docstring).
    """

    __slots__ = ("dom", "cod", "rows", "_index")

    def __init__(self, dom: Word, cod: Word, rows):
        kept = {}
        seen = set()  # every key of a pair list, empty rows included
        for x, h in rows.items() if hasattr(rows, "items") else rows:
            if not word_contains(dom, x):
                raise BoundaryError(f"row key {x!r} is not an element of the domain word")
            if x in seen:
                raise BoundaryError(f"duplicate row key {x!r}")
            seen.add(x)
            if not isinstance(h, WeightMap):
                raise BoundaryError(f"row {x!r} is not a WeightMap")
            for y, _ in h.entries:
                if not word_contains(cod, y):
                    raise BoundaryError(f"entry key {y!r} is not an element of the codomain word")
            if len(h):
                kept[x] = h
        self._store(dom, cod, kept)

    @classmethod
    def _canonical(cls, dom: Word, cod: Word, rows: dict) -> WRel:
        """The arrow of rows, a dict from elements of dom to WeightMaps over
        cod, with no key checked; empty rows are dropped as WRel(...) drops
        them, so the result equals the checked construction."""
        f = object.__new__(cls)
        f._store(dom, cod, {x: h for x, h in rows.items() if h.entries})
        return f

    def _store(self, dom: Word, cod: Word, kept: dict) -> None:
        # as WeightMap._store: no sort below two rows, slots set through
        # their descriptors
        _set_dom(self, tuple(dom))
        _set_cod(self, tuple(cod))
        _set_rows(self, tuple(kept.items()) if len(kept) < 2 else tuple(sorted(kept.items())))
        _set_index(self, kept)

    def __setattr__(self, *_):
        raise AttributeError("WRel is immutable")

    def row(self, sr: Semiring, x) -> WeightMap:
        h = self._index.get(x)
        return wm_empty(sr) if h is None else h

    def value(self, sr: Semiring, x, y):
        return self.row(sr, x).value(sr, y)

    def boundary(self) -> tuple[Word, Word]:
        return self.dom, self.cod

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WRel)
            and self.dom == other.dom
            and self.cod == other.cod
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.dom, self.cod, self.rows))

    def __repr__(self) -> str:
        d = "*".join(s.name for s in self.dom) or "I"
        c = "*".join(s.name for s in self.cod) or "I"
        return f"WRel({d} -> {c}, {len(self.rows)} rows)"


_set_dom, _set_cod, _set_rows, _set_index = (WRel.__dict__[slot].__set__ for slot in WRel.__slots__)


def wrel_make(sr: Semiring, dom: Word, cod: Word, entries) -> WRel:
    """Build an arrow from {row_key: {col_key: value}} style entries, or
    from (row_key, cols) pairs, whose keys WRel(...) checks for repeats."""
    pairs = entries.items() if hasattr(entries, "items") else entries
    return WRel(
        dom, cod, [(x, h if isinstance(h, WeightMap) else wm_make(sr, h)) for x, h in pairs]
    )


def wrel_eq(f: WRel, g: WRel) -> bool:
    if f.boundary() != g.boundary():
        raise BoundaryError(
            f"cannot compare arrows with different boundaries: "
            f"{_word_str(f.dom)} -> {_word_str(f.cod)} vs {_word_str(g.dom)} -> {_word_str(g.cod)}"
        )
    return f.rows == g.rows


def _word_str(word: Word) -> str:
    return "[" + ",".join(s.name for s in word) + "]"


# ---------------------------------------------------------------------------
# category and monoidal structure


def wrel_id(sr: Semiring, word: Word) -> WRel:
    return WRel._canonical(word, word, {x: wm_eta(sr, x) for x in word_elements(word)})


def _over_lcm(entries) -> tuple[int, list]:
    """Fraction-valued entries, at least one, as integers over their least
    common denominator d: (d, [(key, v * d)])."""
    keys, values = zip(*entries)
    ns, ds = zip(*[v.as_integer_ratio() for v in values])
    d = lcm(*ds)
    return d, list(zip(keys, map(mul, ns, map(floordiv, repeat(d), ds))))


def wrel_compose(sr: Semiring, f: WRel, g: WRel) -> WRel:
    if f.cod != g.dom:
        raise BoundaryError(
            f"compose mismatch: {_word_str(f.cod)} vs {_word_str(g.dom)}"
        )
    if sr.plain_type is not None:
        return _compose_over_ints(sr, f, g)
    # rows g does not store are empty and add nothing
    g_rows = g._index
    add, mul = sr.add, sr.mul
    rows = {}
    for x, frow in f.rows:
        acc: dict = {}
        for y, v in frow.entries:
            grow = g_rows.get(y)
            if grow is None:
                continue
            for z, w in grow.entries:
                term = mul(v, w)
                acc[z] = add(acc[z], term) if z in acc else term
        if acc:
            rows[x] = WeightMap._canonical(sr, acc)
    return WRel._canonical(f.dom, g.cod, rows)


def _compose_over_ints(sr: Semiring, f: WRel, g: WRel) -> WRel:
    """wrel_compose over a plain number type (sr.plain_type), by Kronecker
    substitution.  A row of f with one entry v at y has nothing to add: it
    is g's row y itself when v is 1, else the products v * w.  A longer row
    is put over integers: each row of g it reads once over the lcm dy of
    its denominators, and its own terms (n / d) * (ints / dy) over the lcm
    den of their d * dy, so that a cell is the integer sum of a_y * ints_y
    over den (den is 1 over nat).  Each such cell is at most the sum of
    a_y * max(ints_y), and the widest bound of the call fixes one slot
    width.  Each row of g that a longer row reads is packed once into an
    integer, one slot per column (the sorted keys of those rows); a row of
    f ; g is then the sum of a_y * packed_y, one big-integer multiply per
    entry of f, whose nonzero slots are its cells, Fraction(n, den) over
    the rationals.  Packing needs values >= 0, which the carrier ensures
    and WeightMap(...) does not check: a negative value in a longer row of
    f, or in a row of g that one reads, raises WeightMapError."""
    g_index, fraction = g._index, sr.plain_type is Fraction
    rows, longer = {}, []
    for x, frow in f.rows:
        if len(frow.entries) == 1:
            ((y, v),) = frow.entries
            grow = g_index.get(y)
            if grow is not None:
                rows[x] = grow if v == 1 else WeightMap._canonical(
                    sr, {z: v * w for z, w in grow.entries}
                )
        else:
            longer.append((x, *zip(*frow.entries)))
    if not longer:
        return WRel._canonical(f.dom, g.cod, rows)
    dens, ints, tops = {}, {}, {}  # per row of g read: dy, {key: int}, max
    for y in dict.fromkeys(chain.from_iterable(ys for _, ys, _ in longer)):
        dens[y], ints[y], tops[y] = _over_ints(g_index.get(y), fraction)
    terms, widest = [], 0
    for x, ys, vs in longer:
        if fraction:
            ns, ds = zip(*[v.as_integer_ratio() for v in vs])
            ds = list(map(mul, ds, map(dens.__getitem__, ys)))
            den = lcm(*ds)
            a = list(map(mul, ns, map(floordiv, repeat(den), ds)))
        else:
            den, a = 1, vs
        if min(a) < 0:
            raise WeightMapError(_NEGATIVE)
        widest = max(widest, sum(map(mul, a, map(tops.__getitem__, ys))))
        terms.append((x, ys, den, a))
    cols = sorted(set().union(*ints.values()))
    size = -(-widest.bit_length() // 8)
    size = next((n for n in _SLOT_CODES if n >= size), size)
    code = _SLOT_CODES.get(size)
    packed = {y: _pack(list(map(row.get, cols, repeat(0))), size, code) for y, row in ints.items()}
    for x, ys, den, a in terms:
        cells = _unpack(sum(map(mul, a, map(packed.__getitem__, ys))), len(cols), size, code)
        kept = compress(zip(cols, cells), cells)
        rows[x] = WeightMap._canonical(
            sr, {z: Fraction(n, den) for z, n in kept} if fraction else dict(kept)
        )
    return WRel._canonical(f.dom, g.cod, rows)


_NEGATIVE = "cannot pack a negative value to compose over a plain number type"


def _over_ints(h, fraction: bool) -> tuple[int, dict, int]:
    """A row h of g for _compose_over_ints, None for a row g does not
    store: (dy, {key: value * dy}, the largest value * dy), where dy is the
    lcm of its denominators.  A negative value raises WeightMapError."""
    if h is None:
        return 1, {}, 0
    if fraction:
        dy, scaled = _over_lcm(h.entries)
        values = dict(scaled)
    else:
        dy, values = 1, h._index
    if min(values.values()) < 0:
        raise WeightMapError(_NEGATIVE)
    return dy, values, max(values.values())


# the native struct code of each slot size in bytes that struct packs and
# memoryview unpacks directly, smallest first; _pack and _unpack run a wider
# slot through int.to_bytes.  struct, not array: Python loads struct at
# start-up, and loading array's extension module added about 0.15 MB to the
# peak RSS of a run (Python 3.11, x86-64 Linux)
_SLOT_CODES = {struct.calcsize(code): code for code in "BHIQ"}


def _pack(slots: list, size: int, code) -> int:
    """The integer whose bytes, in sys.byteorder, are the values of slots
    one after another, each in size bytes."""
    if code is not None:
        return int.from_bytes(struct.pack(f"{len(slots)}{code}", *slots), sys.byteorder)
    return int.from_bytes(b"".join(v.to_bytes(size, sys.byteorder) for v in slots), sys.byteorder)


def _unpack(packed: int, count: int, size: int, code) -> list:
    """The count size-byte slots of packed, slot 0 first: _pack's inverse."""
    data = packed.to_bytes(count * size, sys.byteorder)
    if code is not None:
        return memoryview(data).cast(code).tolist()
    return [int.from_bytes(data[i:i + size], sys.byteorder) for i in range(0, len(data), size)]


def wrel_tensor(sr: Semiring, f: WRel, g: WRel) -> WRel:
    return WRel._canonical(f.dom + g.dom, f.cod + g.cod, _tensor_rows(sr, product(f.rows, g.rows)))


def _tensor_rows(sr: Semiring, pairs) -> dict:
    """Row xf + xg of a tensor f * g for each pair ((xf, hf), (xg, hg)) of a
    row of f and a row of g; wrel_tensor passes every pair, _compose_tensor
    the pairs that its composite reads.  Each row is wm_psi of its two rows,
    built here without the call: entry keys are flat tuples, so joining them
    is concatenation.  Over plain rationals each row is put over its lcm
    once per call, keyed by its row key on its side."""
    rows = {}
    if sr.plain_type is Fraction:
        lefts: dict = {}
        rights: dict = {}
        for (xf, hf), (xg, hg) in pairs:
            if xf not in lefts:
                lefts[xf] = _over_lcm(hf.entries)
            if xg not in rights:
                rights[xg] = _over_lcm(hg.entries)
            (df, left), (dg, right) = lefts[xf], rights[xg]
            den = df * dg
            rows[xf + xg] = WeightMap._canonical(
                sr, {x + y: Fraction(a * b, den) for x, a in left for y, b in right}
            )
    else:
        mul = sr.mul
        for (xf, hf), (xg, hg) in pairs:
            rows[xf + xg] = WeightMap._canonical(
                sr, {x + y: mul(a, b) for x, a in hf.entries for y, b in hg.entries}
            )
    return rows


def _compose_tensor(sr: Semiring, f: WRel, left: WRel, right: WRel, built: dict) -> WRel:
    """f ; (left * right), building only the rows of the tensor that the
    composite reads.  A row of f ; g reads only the rows of g at the keys of
    its entries, so this equals wrel_compose(sr, f, wrel_tensor(sr, left,
    right)) over every semiring, and its rows come from _tensor_rows as
    wrel_tensor's do.  built maps a row key of the tensor to its row, for
    the rows built so far; the rows built here are added to it, so callers
    that compose into one tensor again and pass the same dict build each
    row once.  wrel_compose checks the boundaries."""
    cut = len(left.dom)
    lefts, rights = left._index, right._index
    pairs = []
    for y in {y for _x, h in f.rows for y, _v in h.entries}:
        if y not in built:
            yl, yr = y[:cut], y[cut:]
            hl, hr = lefts.get(yl), rights.get(yr)
            # an empty factor row makes an empty row, which adds nothing
            if hl is not None and hr is not None:
                pairs.append(((yl, hl), (yr, hr)))
    built.update(_tensor_rows(sr, pairs))
    return wrel_compose(sr, f, WRel._canonical(left.dom + right.dom, left.cod + right.cod, built))


def wrel_copy(sr: Semiring, word: Word) -> WRel:
    return WRel._canonical(word, word + word, {x: wm_eta(sr, x + x) for x in word_elements(word)})


def wrel_del(sr: Semiring, word: Word) -> WRel:
    return WRel._canonical(word, (), {x: wm_eta(sr, ()) for x in word_elements(word)})


def wrel_swap(sr: Semiring, left: Word, right: Word) -> WRel:
    cut = len(left)
    rows = {}
    for x in word_elements(left + right):
        rows[x] = wm_eta(sr, x[cut:] + x[:cut])
    return WRel._canonical(left + right, right + left, rows)


# ---------------------------------------------------------------------------
# the structure holder: structural arrows, domain and mass


class Structure:
    """Structural arrows over one semiring, each word's built on first use.

    Create one per semiring's run of the law suites, or one diagram query,
    and drop it with the run: its dict holds every arrow it has built, one
    per distinct word.  mass and dom are the defining composites, built over
    those arrows.
    """

    __slots__ = ("sr", "_arrows")

    def __init__(self, sr: Semiring):
        self.sr = sr
        self._arrows: dict = {}

    def _arrow(self, build, *words: Word) -> WRel:
        key = (build, *words)
        arrow = self._arrows.get(key)
        if arrow is None:
            arrow = self._arrows[key] = build(self.sr, *words)
        return arrow

    def copy(self, word: Word) -> WRel:
        return self._arrow(wrel_copy, word)

    def id(self, word: Word) -> WRel:
        return self._arrow(wrel_id, word)

    def discard(self, word: Word) -> WRel:
        return self._arrow(wrel_del, word)

    def swap(self, left: Word, right: Word) -> WRel:
        return self._arrow(wrel_swap, left, right)

    def mass(self, f: WRel) -> WRel:
        """Discharge the codomain: f ; del."""
        return wrel_compose(self.sr, f, self.discard(f.cod))

    def dom(self, f: WRel) -> WRel:
        """Defining composite copy ; (id x mass(f)); the right unitor is a
        no-op because tensoring with the empty word does not change index
        tuples.  Like every composite into a tensor, it builds only the rows
        of the tensor that copy reads, (x, x) for x in mass(f)."""
        x = f.dom
        return _compose_tensor(self.sr, self.copy(x), self.id(x), self.mass(f), {})


def wrel_mass(sr: Semiring, f: WRel) -> WRel:
    """Structure.mass on a fresh holder."""
    return Structure(sr).mass(f)


def wrel_dom(sr: Semiring, f: WRel) -> WRel:
    """Structure.dom on a fresh holder."""
    return Structure(sr).dom(f)


def wrel_dom_closed(sr: Semiring, f: WRel) -> WRel:
    """Independent oracle: diagonal of row totals."""
    rows = {}
    for x, h in f.rows:
        rows[x] = wm_make(sr, {x: wm_total(sr, h)})
    return WRel(f.dom, f.dom, rows)


def wrel_dom_via_kleisli_path(sr: Semiring, f: WRel) -> WRel:
    """dom(f) ; f computed through the monad structure instead of matrices.

    Per row h: pair the row with its own discharge image and push the unit
    factor away:  h  ->  (h, pushforward_del(h))  ->  psi  ->  forget ().
    Evaluating the pipeline with wm_psi and pushforwards keeps it
    independent of wrel_compose internals.
    """
    rows = {}
    for x, h in f.rows:
        massed = wm_pushforward(sr, lambda _k: (), h)
        paired = wm_psi(sr, h, massed)
        # paired keys are y + (); dropping the empty tail is the unitor.
        rows[x] = wm_pushforward(sr, lambda k: k[: len(f.cod)], paired)
    return WRel(f.dom, f.cod, rows)


# The functions below read terms and equations of diagram.LAW_TABLE, which
# diagram evaluates over the arrows of this module; hence the local imports.


@dataclass(frozen=True)
class ArrowFlags:
    total: bool
    copyable: bool
    domain_eq: bool
    mass_eq: bool


def hom_scalar_mul(sr: Semiring, f: WRel, g: WRel) -> WRel:
    """Pointwise product of scalar maps Y -> I: copy[Y] ; (f * g), the left
    side of the homm/mul-comm row."""
    from .diagram import _LAWS, _LawCase

    if f.cod != () or g.cod != ():
        raise BoundaryError("scalar multiplication needs arrows into the empty word")
    if f.dom != g.dom:
        raise BoundaryError("scalar multiplication needs a shared domain")
    product_term, _ = _LAWS["homm/mul-comm"][0]
    return _LawCase(Structure(sr), {"Y": f.dom}, {"f": f, "g": g}).eval(product_term)


def canonical_semigroup_mul(sr: Semiring, word: Word) -> WRel:
    """First-projection multiplication id x del, a one-sided inverse to copy:
    the right factor of copy[A] ; (id[A] * del[A]) in cansem/special-semigroup."""
    from .diagram import _LAWS, _LawCase

    special, _ = _LAWS["cansem/special-semigroup"][0]
    return _LawCase(Structure(sr), {"A": word}).eval(special.right)


def wrel_classify(sr: Semiring, f: WRel) -> ArrowFlags:
    """The four per-arrow equations, the kleisli/ rows of the law table other
    than weakly-markov, on one case: they share dom(f) and mass(f)."""
    from .diagram import _FLAG_LAWS, _arrow_case

    case = _arrow_case(Structure(sr), f)
    return ArrowFlags(**{flag: case.holds(law) for flag, law in _FLAG_LAWS.items()})


# ---------------------------------------------------------------------------
# arrow enumeration and sampling


def enumerate_arrows(sr: Semiring, dom: Word, cod: Word, variant: str = "M") -> list[WRel]:
    """All arrows whose rows are variant members; finite carriers only."""
    return list(_arrows_over(sr, dom, cod, variant))


def _arrows_over(sr: Semiring, dom: Word, cod: Word, variant: str):
    """The arrows of enumerate_arrows, in order, each built when it is read."""
    keys = list(word_elements(dom))
    # An empty domain has one arrow, the empty one, which reads no row: its
    # rows are not enumerated, though an infinite carrier is still refused.
    choices = enumerate_maps(sr, cod, variant) if keys or not sr.finite else []
    return (
        WRel._canonical(dom, cod, dict(zip(keys, rows)))
        for rows in product(choices, repeat=len(keys))
    )


def sample_arrows(
    sr: Semiring, dom: Word, cod: Word, variant: str, seed: int, n: int, tag: str = "arrows"
) -> list[WRel]:
    """Deterministic seeded arrow sample; rows drawn from variant map samples.

    The stream starts with systematic products of the smallest row shapes, so
    witnesses land on small readable arrows before random draws begin.  The
    rows come from the pool sample_maps(sr, cod, variant, seed, max(6, n // 4),
    f"{tag}-rows") returns, but each is drawn on first read: the products
    read the first three rows, the i-th of them at the i-th arrow, and only
    the random draws after them read, and so draw, the whole pool.  An
    enumerable arrow space gives its first n arrows, building no others.
    An n of 0 or less gives no arrow.
    """
    if n <= 0:
        return []
    if _enumerable(sr, word_size(dom) * word_size(cod)):
        return list(islice(_arrows_over(sr, dom, cod, variant), n))
    keys = list(word_elements(dom))
    rows = _sampled_members(sr, cod, variant, seed, max(6, n // 4), f"{tag}-rows")
    # Distinct row tuples give distinct arrows, and the i-th tuple of the
    # product over three rows spells i in base 3, so the products stop at
    # the n-th arrow having read no row past the n-th.  An X0 domain reads
    # one row, to tell an empty family.  Only the rows read are drawn here.
    row_pool = list(islice(rows, min(3, max(1, n)) if keys else 1))
    if not row_pool:
        return []
    out = []
    seen = set()
    for assignment in product(row_pool, repeat=len(keys)):
        arrow = WRel._canonical(dom, cod, dict(zip(keys, assignment)))
        if arrow not in seen:
            seen.add(arrow)
            out.append(arrow)
        if len(out) >= n:
            return out
    if not keys:
        return out
    row_pool += rows  # rng.choice reads the length of the whole pool
    rng = derive_rng(seed, "sample-arrows", sr.name, variant, tag, len(keys), n)
    while len(out) < n:
        arrow = WRel._canonical(dom, cod, {k: rng.choice(row_pool) for k in keys})
        if arrow not in seen:
            seen.add(arrow)
            out.append(arrow)
        elif len(row_pool) ** max(1, len(keys)) <= len(out):
            break
    return out


def variant_arrows(
    sr: Semiring, dom: Word, cod: Word, variant: str, seed: int, n: int, tag: str = "arrows"
) -> tuple[list[WRel], bool]:
    """Variant arrows plus an exhaustiveness marker, mirroring variant_maps."""
    if _enumerable(sr, word_size(dom) * word_size(cod)):
        return enumerate_arrows(sr, dom, cod, variant), True
    return sample_arrows(sr, dom, cod, variant, seed, n, tag), False


def arrow_in_variant(sr: Semiring, f: WRel, variant: str) -> bool:
    """True when every row (including implicit empty rows) is a variant member."""
    return all(in_variant(sr, f.row(sr, x), variant) for x in word_elements(f.dom))


# ---------------------------------------------------------------------------
# serialization


def finset_to_doc(s: FinSet) -> dict:
    doc = {"name": s.name, "size": s.size}
    if s.labels is not None:
        doc["labels"] = list(s.labels)
    return doc


def finset_from_doc(doc) -> FinSet:
    if not isinstance(doc, dict) or "name" not in doc or "size" not in doc:
        raise WRelFormatError(f"bad finite-set document: {doc!r}")
    # exactly int: 1.7, true and "2" are not sizes, though int() takes them
    if type(doc["size"]) is not int:
        raise WRelFormatError(f"bad finite-set document {doc!r}: size must be an integer")
    labels = doc.get("labels")
    if labels is not None and not (
        isinstance(labels, list) and all(isinstance(l, str) for l in labels)
    ):
        raise WRelFormatError(
            f"bad finite-set document {doc!r}: labels must be a list of strings"
        )
    try:
        return FinSet(str(doc["name"]), doc["size"], tuple(labels) if labels is not None else None)
    except ValueError as e:
        raise WRelFormatError(f"bad finite-set document {doc!r}: {e}") from None


def _value_label(sr: Semiring, v) -> str:
    """sr.label(v), for a value that is printed; a value with an integer
    too long for str() raises WRelFormatError, which the CLI exits 2 on."""
    try:
        return sr.label(v)
    except ValueError:
        raise WRelFormatError(
            f"a {sr.name} value has an integer of more than "
            f"{sys.get_int_max_str_digits()} digits, Python's limit for printing one"
        ) from None


def wrel_to_doc(sr: Semiring, f: WRel) -> dict:
    """The arrow as a document: its boundary sorts, and one
    [row labels, column labels, value label] entry per entry of its rows.

    A key's labels are built once per call and copied into each entry, so
    no two entries share a list."""
    cod_labels = {}
    entries = []
    for x, h in f.rows:
        x_labels = word_labels(f.dom, x)
        for y, v in h.entries:
            y_labels = cod_labels.get(y)
            if y_labels is None:
                y_labels = cod_labels[y] = word_labels(f.cod, y)
            entries.append([x_labels[:], y_labels[:], _value_label(sr, v)])
    return {
        "dom": [finset_to_doc(s) for s in f.dom],
        "cod": [finset_to_doc(s) for s in f.cod],
        "entries": entries,
    }


def wrel_from_doc(sr: Semiring, doc) -> WRel:
    return _build_arrow(sr, _check_arrow_doc(sr, doc, _Labels()))


class _CheckedArrow(NamedTuple):
    """An arrow document that passed the checks of wrel_from_doc: its
    boundary words, and its entries as {row key: {col key: value}}, where
    every key is an element of its word and every value is parsed."""

    dom: Word
    cod: Word
    rows: dict


def _check_arrow_doc(sr: Semiring, doc, labels: _Labels) -> _CheckedArrow:
    """The checking pass of wrel_from_doc: every field, entry shape, label,
    value label and repeated entry, each refused with WRelFormatError.

    Each word keeps a memo from a tuple of labels to the element they name,
    filled only after index_of has accepted every label of the tuple.  An
    entry that is an exact list of two exact label lists and a value str,
    whose label tuples and value label are all memoized, costs three lookups
    and the duplicate test: a hit implies every check _check_entry would
    make, with the same result.  Every other entry (a miss, an unhashable
    or non-string label, a list subclass) takes _check_entry, which makes
    each check in order.  The memos live in labels: wrel_from_doc gives a
    fresh _Labels, and load_interpretation one _Labels to every generator
    it checks, so they share the memo of each word."""
    if not isinstance(doc, dict):
        raise WRelFormatError("arrow document must be an object")
    for key in ("dom", "cod", "entries"):
        if key not in doc:
            raise WRelFormatError(f"arrow document missing field {key!r}")
        if not isinstance(doc[key], list):
            raise WRelFormatError(f"arrow field {key!r} must be a list")
    dom = tuple(finset_from_doc(d) for d in doc["dom"])
    cod = tuple(finset_from_doc(d) for d in doc["cod"])
    dom_keys, cod_keys = labels.words.setdefault(dom, {}), labels.words.setdefault(cod, {})
    values = labels.values
    rows: dict = {}
    for item in doc["entries"]:
        x = None
        if type(item) is list and len(item) == 3:
            row_labels, col_labels, value_label = item
            if type(row_labels) is list and type(col_labels) is list and type(value_label) is str:
                try:  # x is assigned only if all three are hits
                    x, y, v = (
                        dom_keys[tuple(row_labels)],
                        cod_keys[tuple(col_labels)],
                        values[value_label],
                    )
                except (KeyError, TypeError):
                    pass
        if x is None:
            row_labels, col_labels, x, y, v = _check_entry(sr, dom, cod, values, item)
            if type(row_labels) is list:
                dom_keys[tuple(row_labels)] = x
            if type(col_labels) is list:
                cod_keys[tuple(col_labels)] = y
        cols = rows.get(x)
        if cols is None:
            cols = rows[x] = {}
        elif y in cols:
            raise WRelFormatError(f"duplicate entry at {row_labels} {col_labels}")
        cols[y] = v
    return _CheckedArrow(dom, cod, rows)


class _Labels:
    """The memos of checking passes over one semiring: per word, label
    tuple -> element, and value label -> parsed value (dense arrows repeat
    a few labels).  Only what passed its checks is stored."""

    __slots__ = ("words", "values")

    def __init__(self):
        self.words: dict = {}
        self.values: dict = {}


def _check_entry(sr: Semiring, dom: Word, cod: Word, values: dict, item) -> tuple:
    """Every check of one entry, in order, each refused with WRelFormatError;
    returns (row labels, column labels, row key, column key, value), and
    memoizes the parsed value."""
    if not isinstance(item, list) or len(item) != 3:
        raise WRelFormatError(f"bad entry {item!r}")
    row_labels, col_labels, value_label = item
    if not (isinstance(row_labels, list) and isinstance(col_labels, list)):
        raise WRelFormatError(f"entry labels must be lists: {item!r}")
    if len(row_labels) != len(dom) or len(col_labels) != len(cod):
        raise WRelFormatError(f"entry shape does not match the boundary words: {item!r}")
    # Fraction() takes floats and bools, so only strings are values
    if not isinstance(value_label, str):
        raise WRelFormatError(f"value label {value_label!r} is not a string")
    try:
        # index_of raises for every label it refuses, the first one first
        x = tuple([s.index_of(l) for s, l in zip(dom, row_labels)])
        y = tuple([s.index_of(l) for s, l in zip(cod, col_labels)])
        if value_label not in values:
            values[value_label] = sr.parse(value_label)
        v = values[value_label]
    except (TypeError, ValueError) as e:
        raise WRelFormatError(str(e)) from None
    return row_labels, col_labels, x, y, v


def _build_arrow(sr: Semiring, checked: _CheckedArrow) -> WRel:
    """The build step of wrel_from_doc; it raises nothing.  index_of and the
    shape check made every key a word element, so WRel._canonical does not
    check them again, and WeightMap(...) drops zero values."""
    return WRel._canonical(
        checked.dom, checked.cod, {x: wm_make(sr, cols) for x, cols in checked.rows.items()}
    )
