"""The per-case kernels of the law suites keep their meaning.

A map's and an arrow's canonical store skips the sort below two entries
and sets its slots through their descriptors; a *_once memo is a dict
whose hits run no Python frame; a _TableFn is a dict called as a function
that still compares by identity; and a run keeps each complete pool of the
variant it is drawing, while every sampled pool is drawn afresh.
"""
import pytest

import gsrel.taxonomy
from gsrel import FinSet, WeightMap, WeightMapError, load_semiring
from gsrel.taxonomy import DEFAULT_OPS, MonadOps, _BoundOps, _json_safe, _memo, _memo1, _Run
from gsrel.taxonomy import _TableFn, check_monad_laws
from gsrel.wrel import WRel

NAT = load_semiring("nat")
BOOL = load_semiring("bool")
X1, X2, Y2 = (FinSet("X", 1),), (FinSet("X", 2),), (FinSet("Y", 2),)


def point(key, value=1):
    return WeightMap(NAT, {key: value})


ITEMS = {
    "none": {},
    "one": {(1,): 2},
    "many": {(2, 0): 1, (0, 1): 3, (1, 1): 5, (0, 0): 7},
    "one nested": {point((0,)): 4},
    "many nested": {point((1,)): 1, WeightMap(NAT, {}): 2, point((0,), 3): 1, point((0,)): 6},
}


@pytest.mark.parametrize("name", ITEMS)
def test_the_canonical_store_sorts_as_sorted_does(name):
    items = ITEMS[name]
    for h in (WeightMap(NAT, items), WeightMap._canonical(NAT, dict(items))):
        assert h.entries == tuple(sorted(items.items()))
        assert dict(h.entries) == h._index == items
        assert hash(h) == hash(tuple(sorted(items.items())))


@pytest.mark.parametrize("rows", [0, 1, 2])
def test_an_arrow_stores_its_rows_sorted(rows):
    keys = [(1,), (0,)][:rows]
    given = {x: point((x[0],), x[0] + 1) for x in keys}
    for f in (WRel(X2, Y2, given), WRel._canonical(X2, Y2, given)):
        assert f.rows == tuple(sorted(given.items()))
        assert f.dom == X2 and f.cod == Y2


def test_maps_and_arrows_stay_immutable():
    h = point((0,))
    f = WRel(X1, Y2, {(0,): h})
    for obj, slots in ((h, ("entries", "_index", "_hash")), (f, ("dom", "cod", "rows", "_index"))):
        for slot in slots:
            with pytest.raises(AttributeError, match="immutable"):
                setattr(obj, slot, None)
    assert h.entries == (((0,), 1),) and f.rows == (((0,), h),)


def test_keys_of_different_kinds_are_refused():
    mixed = {(0,): 1, point((0,)): 1}
    with pytest.raises(WeightMapError, match="keys of different kinds"):
        WeightMap(NAT, mixed)
    with pytest.raises(WeightMapError, match="keys of different kinds"):
        WeightMap._canonical(NAT, dict(mixed))


def test_a_memo_calls_its_op_once_per_distinct_argument_list():
    seen = []

    def op(*args):
        seen.append(args)
        return list(args)

    memo = _memo(op)
    first = memo[1, 2]
    assert memo[1, 2] is first and memo(1, 2) is first
    assert memo[2, 1] == [2, 1]
    assert seen == [(1, 2), (2, 1)]


def test_a_one_argument_memo_never_unpacks_its_argument():
    seen = []

    def op(arg):
        seen.append(arg)
        return [arg]

    memo = _memo1(op)
    assert memo[(1, 2)] == [(1, 2)]
    assert memo((1, 2)) is memo[(1, 2)]
    assert memo[()] == [()]
    assert seen == [(1, 2), ()]


def test_the_bound_memos_apply_the_run_ops_once():
    calls = {"mu": [], "psi": [], "push": []}

    def counted(name, op):
        def call(*args):
            calls[name].append(args[1:])
            return op(*args)

        return call

    ops = MonadOps(
        DEFAULT_OPS.eta,
        counted("mu", DEFAULT_OPS.mu),
        counted("psi", DEFAULT_OPS.psi),
        counted("push", DEFAULT_OPS.pushforward),
    )
    m = _BoundOps(NAT, ops)
    h, k = point((0,)), point((1,), 2)
    H = WeightMap(NAT, {h: 1, k: 3})
    fn = _TableFn({(0,): (1,), (1,): (1,)})
    for _ in range(3):
        assert m.psi_once[h, k] == DEFAULT_OPS.psi(NAT, h, k)
        assert m.mu_once[H] == DEFAULT_OPS.mu(NAT, H)
        assert m.push_once[fn, H.entries[0][0]] == point((1,))
    assert calls == {"mu": [(H,)], "psi": [(h, k)], "push": [(fn, h)]}


def test_equal_table_functions_are_distinct_memo_keys():
    table = {(0,): (1,), (1,): (0,)}
    f, g = _TableFn(table), _TableFn(table)
    assert f((0,)) == (1,) and g((1,)) == (0,)
    assert f == f and f != g and not f == g
    memo = _memo(lambda fn, key: fn(key))
    memo[f, (0,)], memo[g, (0,)]
    assert len(memo) == 2 and len({f, g}) == 2
    assert f.describe() == g.describe() == [[[0], [1]], [[1], [0]]]


def test_a_function_witness_is_its_described_table(monkeypatch):
    # pushforward keeping the first value of a fibre breaks mu-natural over
    # gf(2); the witness names the function as describe() lists it, and
    # _json_safe, which would turn a Mapping into a dict, never sees it
    def keep_first(sr, f, h):
        out = {}
        for key, v in h.entries:
            out.setdefault(f(key), v)
        return WeightMap(sr, out)

    def json_safe(obj):
        assert not isinstance(obj, _TableFn)
        return _json_safe(obj)

    monkeypatch.setattr(gsrel.taxonomy, "_json_safe", json_safe)
    ops = MonadOps(DEFAULT_OPS.eta, DEFAULT_OPS.mu, DEFAULT_OPS.psi, keep_first)
    gf2 = load_semiring("gf(2)")
    reports = {r.law: r for r in check_monad_laws("M", gf2, seed=11, ops=ops)}
    assert reports["monad/mu-natural"].status == "counterexample"
    witness = reports["monad/mu-natural"].witness
    assert witness["word"] == "X2"
    assert witness["arg0"] == [[[0], [0]], [[1], [0]]]


def test_a_run_keeps_one_object_per_complete_pool():
    run = _Run(["M", "Md"], BOOL, (0, 1, 2), 10**6, 11, 24)
    first = run.arrows("M", X2, Y2, 4, "a")
    assert first.complete
    assert run.arrows("M", X2, Y2, 9, "b") is first
    maps = run.maps("M", run.words(), "laws")
    assert all(pool.complete for pool in maps.values())
    again = run.maps("M", [()] + run.words(), "closure")
    assert all(again[w] is pool for w, pool in maps.items())
    # the pools of the variant drawn last are kept, an earlier one's dropped
    md = run.arrows("Md", X2, Y2, 4, "a")
    assert md is not first and run.arrows("Md", X2, Y2, 4, "b") is md
    assert run.arrows("M", X2, Y2, 4, "a") == first
    assert run.arrows("M", X2, Y2, 4, "a") is not first


def test_a_run_draws_every_sampled_pool_afresh():
    run = _Run(["M"], NAT, (0, 1, 2), 10**6, 11, 24)
    # past the products of the first rows, the draws read the tag
    one, two = run.arrows("M", X2, Y2, 40, "a"), run.arrows("M", X2, Y2, 40, "b")
    assert not one.complete and not two.complete
    assert one != two
    assert run.arrows("M", X2, Y2, 40, "a") is not one
    assert run.arrows("M", X2, Y2, 40, "a") == one


def test_a_family_with_a_sampled_word_is_sampled_throughout():
    # gf(17) maps over X0 and X1 are enumerated and kept; over X3 sampled
    run = _Run(["M"], "gf(17)", (0, 1, 3), 10**6, 11, 24)
    small = run.maps("M", run.words()[:2], "a")
    assert all(pool.complete for pool in small.values())
    family = run.maps("M", run.words(), "a")
    assert not any(pool.complete for pool in family.values())
    assert all(family[w] == pool and family[w] is not pool for w, pool in small.items())
