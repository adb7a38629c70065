"""Finite-support weight maps and their monad structure.

A WeightMap assigns semiring values to finitely many keys.  Keys are flat
tuples of component indices when the map lives over a word of finite sets
(the unit word is empty, its single element is the empty tuple), and nested
WeightMap instances when the map lives over a space of maps; wm_psi of a
nested map joins both kinds position by position.  The keys of one map are
of one kind, so they sort natively, and keys of different kinds in one map
raise WeightMapError; the WeightMap docstring gives the order of maps.
Canonical form stores no zero values and sorts entries, so equality and
hashing are structural.

Every map is canonical.  WeightMap(...) makes it so for any input: it
refuses a key given twice and drops zero values.  The monad operations
below (wm_psi, wm_mu, wm_pushforward), wrel_compose, and wrel_tensor,
which builds each row as the wm_psi of two rows without calling it,
build through WeightMap._canonical instead: their keys are unique by
construction and their values are sums and products of the nonzero values
of canonical maps, so over a `positive` semiring (see Semiring) none of
them is zero and the zero test is skipped; over any other semiring zeros
are dropped as WeightMap(...) drops them.  Either way the result equals the
checked construction, provided every value is in the carrier: WeightMap(...)
does not check that, so over nat a map built from -1 and 1 can push forward
to a stored 0.  Every other construction (wm_make, wm_eta, the enumerated
and sampled pools, the arrow documents, and the generators of an
interpretation, each built when first read) goes through WeightMap(...),
so a zero value label in input is dropped.

The monad operations:
  wm_eta(x)            = {x: 1}
  wm_pushforward(f, h) = y -> sum of h(x) over f(x) = y
  wm_mu(H)             = x -> sum over inner maps h of H(h) * h(x)
  wm_psi(h, k)         = (x, y) -> h(x) * k(y), keys concatenated
  wm_total(h)          = sum of all values

Sub-family membership (in_variant):
  Mr: at most one support key and every value v has v*v = v
  Ma: total = 1
  Mm: t*t = t for t = total
  Md: h(x)*t = h(x) for every support key
  Mi: nonempty support and every value has a multiplicative inverse
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import partial
from itertools import islice, product

from .report import derive_rng
from .semiring import Semiring, mul_inverse

VARIANTS = ("M", "Mr", "Ma", "Mm", "Md", "Mi")


class WeightMapError(ValueError):
    pass


@dataclass(frozen=True)
class FinSet:
    """Finite set with indexed elements 0..size-1 and optional print labels."""

    name: str
    size: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.size < 0:
            raise WeightMapError(f"{self.name}: negative size")
        # range() and product() index their elements with C integers
        if self.size > sys.maxsize:
            raise WeightMapError(f"{self.name}: size {self.size} is above {sys.maxsize}")
        if self.labels is not None:
            if len(self.labels) != self.size:
                raise WeightMapError(f"{self.name}: {len(self.labels)} labels for size {self.size}")
            if len(set(self.labels)) != self.size:
                raise WeightMapError(f"{self.name}: labels are not distinct")

    def label_of(self, i: int) -> str:
        if not 0 <= i < self.size:
            raise WeightMapError(f"{self.name}: index {i} out of range")
        return self.labels[i] if self.labels is not None else str(i)

    def index_of(self, label: str) -> int:
        # int() takes 2.7 and True, so only strings are labels
        if not isinstance(label, str):
            raise WeightMapError(f"{self.name}: label {label!r} is not a string")
        if self.labels is not None:
            try:
                return self.labels.index(label)
            except ValueError:
                raise WeightMapError(f"{self.name}: unknown label {label!r}") from None
        i = int(label)
        if not 0 <= i < self.size:
            raise WeightMapError(f"{self.name}: label {label!r} out of range")
        # int() also takes " 1", "+1", "0_1", "01" and other digit scripts;
        # the label of element i is str(i) alone, as label_of prints it
        if str(i) != label:
            raise WeightMapError(
                f"{self.name}: unknown label {label!r}; element {i} is labelled '{i}'"
            )
        return i


# A word is a plain tuple of FinSets; the empty word is the monoidal unit,
# whose product has exactly one element, the empty tuple.
Word = tuple


def word_elements(word: Word):
    return product(*(range(s.size) for s in word))


def word_size(word: Word) -> int:
    n = 1
    for s in word:
        n *= s.size
    return n


def word_contains(word: Word, key) -> bool:
    if not isinstance(key, tuple) or len(key) != len(word):
        return False
    for i, s in zip(key, word):
        if not (isinstance(i, int) and 0 <= i < s.size):
            return False
    return True


def word_labels(word: Word, key: tuple) -> list[str]:
    return [s.label_of(i) for s, i in zip(word, key)]


class WeightMap:
    """Immutable canonical finite-support map; see the module docstring.

    As a key, a map sorts by its entries: key first, then the repr of the
    value, not the value, so over the rationals {x: 1/2} comes before
    {x: 1/3}.  Pinned witnesses list nested maps in this order.
    """

    __slots__ = ("entries", "_index", "_hash")

    def __init__(self, sr: Semiring, items):
        if hasattr(items, "items"):
            pairs = items.items()
        else:
            # mapping keys are unique already; pairs are checked, zeros included
            pairs = list(items)
            seen = set()
            for k, _ in pairs:
                if k in seen:
                    raise WeightMapError(f"duplicate key {k!r}")
                seen.add(k)
        zero = sr.zero
        # kept is fresh from the comprehension, so no caller holds it
        self._store({k: v for k, v in pairs if v != zero})

    @classmethod
    def _canonical(cls, sr: Semiring, acc: dict) -> WeightMap:
        """The map of acc, a fresh dict that the caller gives up, whose
        values are sums and products of values of canonical maps; see the
        module docstring for who may call this.  Zeros are dropped only
        over a semiring that is not positive."""
        if not sr.positive:
            zero = sr.zero
            acc = {k: v for k, v in acc.items() if v != zero}
        h = object.__new__(cls)
        h._store(acc)
        return h

    def _store(self, kept: dict) -> None:
        # fewer than two entries are in order already; the slots are set
        # through their descriptors, since __setattr__ refuses every write
        if len(kept) < 2:
            entries = tuple(kept.items())
        else:
            try:
                # the keys are unique, so values are never compared
                entries = tuple(sorted(kept.items()))
            except TypeError:
                raise WeightMapError("keys of different kinds in one map") from None
        _set_entries(self, entries)
        _set_index(self, kept)
        # most maps are compared but never hashed; __hash__ fills this in
        _set_hash(self, None)

    def __setattr__(self, *_):
        raise AttributeError("WeightMap is immutable")

    def value(self, sr: Semiring, key):
        return self._index.get(key, sr.zero)

    @property
    def support(self) -> tuple:
        return tuple(k for k, _ in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, WeightMap) and self.entries == other.entries

    def __lt__(self, other) -> bool:
        if not isinstance(other, WeightMap):
            return NotImplemented
        return [(k, repr(v)) for k, v in self.entries] < [(k, repr(v)) for k, v in other.entries]

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self.entries)
            _set_hash(self, h)
        return h

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r}: {v!r}" for k, v in self.entries)
        return "WeightMap({%s})" % inner


_set_entries, _set_index, _set_hash = (
    WeightMap.__dict__[slot].__set__ for slot in WeightMap.__slots__
)


def wm_make(sr: Semiring, items) -> WeightMap:
    return WeightMap(sr, items)


def wm_empty(sr: Semiring) -> WeightMap:
    return WeightMap(sr, {})


def wm_eta(sr: Semiring, key) -> WeightMap:
    """Unit: the one-point map {key: 1}."""
    return WeightMap(sr, {key: sr.one})


def wm_psi0(sr: Semiring) -> WeightMap:
    """Unit-word pairing constant: {(): 1}."""
    return wm_eta(sr, ())


def wm_total(sr: Semiring, h: WeightMap):
    return sr.sum(v for _, v in h.entries)


def wm_pushforward(sr: Semiring, f, h: WeightMap) -> WeightMap:
    """Image of h along the function f, summing over fibers."""
    acc: dict = {}
    for k, v in h.entries:
        y = f(k)
        acc[y] = sr.add(acc[y], v) if y in acc else v
    return WeightMap._canonical(sr, acc)


def _as_tuple(key) -> tuple:
    return key if isinstance(key, tuple) else (key,)


def wm_psi(sr: Semiring, h: WeightMap, k: WeightMap) -> WeightMap:
    """Pairing: value at joined key is the product of the component values."""
    acc = {}
    right = [(_as_tuple(y), w) for y, w in k.entries]
    for x, v in h.entries:
        x = _as_tuple(x)
        for y, w in right:
            acc[x + y] = sr.mul(v, w)
    return WeightMap._canonical(sr, acc)


def wm_mu(sr: Semiring, H: WeightMap) -> WeightMap:
    """Flattening: keys of H must themselves be WeightMaps."""
    acc: dict = {}
    for g, w in H.entries:
        if not isinstance(g, WeightMap):
            raise WeightMapError("wm_mu: outer keys must be WeightMaps")
        for x, v in g.entries:
            term = sr.mul(w, v)
            acc[x] = sr.add(acc[x], term) if x in acc else term
    return WeightMap._canonical(sr, acc)


def wm_antipode(sr: Semiring, h: WeightMap) -> WeightMap:
    """Inverse scalar map over the unit word: {(): v} -> {(): v^-1}."""
    if h.support != ((),):
        raise WeightMapError("antipode expects a single entry at the unit-word element")
    v = h.entries[0][1]
    inv = mul_inverse(sr, v)
    if inv is None:
        raise WeightMapError(f"value {sr.label(v)} has no multiplicative inverse in {sr.name}")
    return WeightMap(sr, {(): inv})


# ---------------------------------------------------------------------------
# sub-family membership


def _in_Mr(sr: Semiring, h: WeightMap) -> bool:
    return len(h.entries) <= 1 and all(sr.mul(v, v) == v for _, v in h.entries)


def _in_Ma(sr: Semiring, h: WeightMap) -> bool:
    return wm_total(sr, h) == sr.one


def _in_Mm(sr: Semiring, h: WeightMap) -> bool:
    t = wm_total(sr, h)
    return sr.mul(t, t) == t


def _in_Md(sr: Semiring, h: WeightMap) -> bool:
    t = wm_total(sr, h)
    return all(sr.mul(v, t) == v for _, v in h.entries)


def _in_Mi(sr: Semiring, h: WeightMap) -> bool:
    return bool(h.entries) and all(mul_inverse(sr, v) is not None for _, v in h.entries)


# The one predicate of each proper sub-family; every map is in M.
_MEMBERSHIP = {"Mr": _in_Mr, "Ma": _in_Ma, "Mm": _in_Mm, "Md": _in_Md, "Mi": _in_Mi}


def in_variant(sr: Semiring, h: WeightMap, variant: str) -> bool:
    """Membership in one sub-family; only that sub-family's predicate runs."""
    if variant not in VARIANTS:
        raise WeightMapError(f"unknown variant {variant!r}")
    return variant == "M" or _MEMBERSHIP[variant](sr, h)


# ---------------------------------------------------------------------------
# enumeration and sampling


def enumerate_maps(sr: Semiring, word: Word, variant: str = "M") -> list[WeightMap]:
    """Every weight map over the word, filtered to the variant.

    Requires a finite carrier; deterministic order (value tuples in carrier
    order over elements in lexicographic order).
    """
    if not sr.finite:
        raise WeightMapError(f"{sr.name}: carrier is not enumerable; use sample_maps")
    return list(_maps_over(sr, list(word_elements(word)), variant))


def _maps_over(sr: Semiring, keys: list, variant: str):
    """Every variant member with support among the distinct keys, valued in
    a finite carrier, lazily; distinct value tuples give distinct maps."""
    for values in product(sr.elements, repeat=len(keys)):
        h = WeightMap(sr, dict(zip(keys, values)))
        if in_variant(sr, h, variant):
            yield h


def sample_maps(
    sr: Semiring,
    word: Word,
    variant: str,
    seed: int,
    n: int,
    tag: str = "maps",
) -> list[WeightMap]:
    """Deterministic seeded sample of variant members over the word.

    Seeds the stream with small targeted shapes (empty map, unit-valued and
    doubled-unit point maps, rescaled and max-normalized random maps) so
    that the common membership patterns appear even when random draws
    would miss them; membership is always re-checked, never assumed.  The
    stream is built lazily and stops at the n-th distinct member, and it
    draws the carrier's sample values only when it reads past the shapes
    that need none, so a pool those shapes fill draws nothing.  A
    repeated random draw yields nothing, because it would only repeat maps
    already yielded.  The list holds every member; sample_arrows reads the
    same members lazily, drawing each on first read.  An n of 0 or less
    gives no map.
    """
    if n <= 0:
        return []
    return list(_sampled_members(sr, word, variant, seed, n, tag))


def _sampled_members(sr: Semiring, word: Word, variant: str, seed: int, n: int, tag: str):
    """The members sample_maps returns, in order, lazily: a member and the
    candidates before it are drawn only when it is read, and the rng is
    derived only when the first carrier value is drawn."""
    # Small finite map spaces are enumerated outright; anything bigger falls
    # through to the seeded stream below, which works for finite carriers too.
    keys = list(word_elements(word))
    if _enumerable(sr, len(keys)):
        return islice(_maps_over(sr, keys, variant), n)
    make_rng = partial(derive_rng, seed, "sample-maps", sr.name, variant, tag, _word_tag(word), n)
    return islice(_members(sr, _sample_stream(sr, keys, make_rng, n), variant), n)


def _sample_stream(sr: Semiring, keys: list, make_rng, n: int):
    """The candidate maps of sample_maps, in order, drawn on demand from the
    rng that make_rng() gives; see _distinct_maps."""
    return _distinct_maps(sr, _candidate_dicts(sr, keys, make_rng, n))


def _distinct_maps(sr: Semiring, dicts):
    """The map of each dict of the stream whose items no dict before it had,
    lazily.  A repeated dict would only repeat a map already yielded, which
    _members drops, so it is not built; the stream still makes every draw."""
    seen = set()
    for d in dicts:
        items = tuple(d.items())
        if items not in seen:
            seen.add(items)
            yield WeightMap(sr, d)


def _candidate_dicts(sr: Semiring, keys: list, make_rng, n: int):
    """The items of the candidate maps of sample_maps, in order.

    The rng is made, by make_rng(), and the carrier values drawn from it
    only after the shapes that need none, so a stream read no further than
    those makes no rng; nothing reads the rng before that draw, so every
    later draw is the same."""
    two = sr.add(sr.one, sr.one)
    yield {}
    if not keys:
        return
    yield {keys[0]: sr.one}
    yield {keys[0]: two}
    for k in keys[1:]:
        yield {k: sr.one}
    yield {k: sr.one for k in keys}
    rng = make_rng()
    values = [v for v in sr.sample_elements(rng) if v != sr.zero]
    for v in values[:4]:
        yield {keys[0]: v}
    if not values:
        return
    # Keys and values are drawn by index: rng.choice(range(m)) uses the rng
    # exactly as rng.choice on a length-m list does, so the draws are the
    # same.  A repeated draw would only yield the three maps its first
    # occurrence yielded, all of which _first_members has already seen, so
    # it is skipped before any map is built.  Once every one of the
    # (len(values) + 1) ** len(keys) - 1 draws has been made, the rest of
    # the loop would yield nothing, so the stream ends there.
    slots, choices = range(len(keys)), range(len(values))
    space = (len(values) + 1) ** len(keys) - 1
    drawn = set()
    for _ in range(6 * n):
        if len(drawn) == space:
            return
        mask = tuple(i for i in slots if rng.random() < 0.6) or (rng.choice(slots),)
        picks = tuple(rng.choice(choices) for _ in mask)
        if (mask, picks) in drawn:
            continue
        drawn.add((mask, picks))
        # keys in key order and no zero value, as in the map's entries
        picked = {keys[i]: values[j] for i, j in zip(mask, picks)}
        yield picked
        # Rescale by the inverse of the total when one exists, to land on
        # normalized members; otherwise force the first value to one.
        t = sr.sum(picked.values())
        inv = mul_inverse(sr, t) if t != sr.zero else None
        if inv is not None:
            yield {k: sr.mul(v, inv) for k, v in picked.items()}
        forced = dict(picked)
        forced[keys[mask[0]]] = sr.one
        yield forced


def _first_members(sr: Semiring, candidates, variant: str, n: int) -> list[WeightMap]:
    """The first n distinct variant members of a candidate stream, in stream
    order; nothing after the n-th member is pulled from the stream."""
    return list(islice(_members(sr, candidates, variant), n))


def _members(sr: Semiring, candidates, variant: str):
    """The distinct variant members of a candidate stream, in stream order,
    each pulled from the stream only when it is read."""
    seen = set()
    for h in candidates:
        if h not in seen:
            seen.add(h)
            if in_variant(sr, h, variant):
                yield h


def variant_maps(
    sr: Semiring, word: Word, variant: str, seed: int, n: int, tag: str = "maps"
) -> tuple[list[WeightMap], bool]:
    """Variant members over the word plus an exhaustiveness marker."""
    if _enumerable(sr, word_size(word)):
        return enumerate_maps(sr, word, variant), True
    return sample_maps(sr, word, variant, seed, n, tag), False


def _enumerable(sr: Semiring, cells: int) -> bool:
    """Whether every filling of `cells` value slots is enumerated, not sampled."""
    return sr.finite and len(sr.elements) ** max(1, cells) <= 4096


def _word_tag(word: Word) -> str:
    return ",".join(f"{s.name}:{s.size}" for s in word)


# ---------------------------------------------------------------------------
# rendering for witnesses and reports


def render_map(sr: Semiring, h: WeightMap) -> dict:
    """JSON-able description of a weight map; nested maps recurse."""
    entries = []
    for k, v in h.entries:
        if isinstance(k, WeightMap):
            key_doc = render_map(sr, k)
        else:
            key_doc = [render_key_part(p, sr) for p in k] if isinstance(k, tuple) else repr(k)
        entries.append({"key": key_doc, "value": sr.label(v)})
    return {"map": entries}


def render_key_part(part, sr: Semiring):
    if isinstance(part, WeightMap):
        return render_map(sr, part)
    return part if isinstance(part, int) else repr(part)
