"""Reference evaluator for diagram terms, written apart from gsrel.

It parses the term text with its own recursive-descent parser and evaluates
it as dense exact matrices (Python ints for ``nat``, ``Fraction`` for
``nonneg-rational``).  An element of a word (s1, ..., sk) is a tuple of
indices; its matrix index is the mixed-radix number with the last sort
varying fastest, which is the lexicographic order of the tuples.

    f ; g      matrix product
    f * g      Kronecker product (left factor major)
    id[w]      identity
    copy[w]    x -> (x, x)
    del[w]     x -> ()            (all-ones column)
    swap[l;r]  (a, b) -> (b, a)
    dom(t)     diagonal of the row totals of t
    mass(t)    column of the row totals of t

``work`` gives the work that ``evaluate`` reports from the nonzero patterns
alone, as bit masks, so that a generator can test many candidate terms
cheaply and evaluate only the ones it keeps.
"""
from __future__ import annotations

import re
from fractions import Fraction

_TOKEN = re.compile(r"\s*(?:([A-Za-z_][A-Za-z_0-9']*)|([;*()\[\],]))")


class Matrix:
    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: list):
        self.rows, self.cols, self.data = rows, cols, data

    def __eq__(self, other) -> bool:
        return (self.rows, self.cols, self.data) == (other.rows, other.cols, other.data)

    def nonzero(self) -> dict:
        return {
            (i, j): v for i, row in enumerate(self.data) for j, v in enumerate(row) if v != 0
        }


def zeros(rows: int, cols: int) -> Matrix:
    return Matrix(rows, cols, [[0] * cols for _ in range(rows)])


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise ValueError(f"compose: {a.cols} columns against {b.rows} rows")
    out = []
    for row in a.data:
        acc = [0] * b.cols
        for k, v in enumerate(row):
            if v != 0:
                for j, w in enumerate(b.data[k]):
                    if w != 0:
                        acc[j] += v * w
        out.append(acc)
    return Matrix(a.rows, b.cols, out)


def kron(a: Matrix, b: Matrix) -> Matrix:
    out = []
    for arow in a.data:
        for brow in b.data:
            out.append([v * w for v in arow for w in brow])
    return Matrix(a.rows * b.rows, a.cols * b.cols, out)


def identity(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m.data[i][i] = 1
    return m


def row_totals(m: Matrix) -> list:
    return [sum(row, 0) for row in m.data]


class Interp:
    """Sort sizes plus generator matrices, read from an interpretation doc."""

    def __init__(self, doc: dict):
        self.semiring = doc["semiring"]
        parse = int if self.semiring == "nat" else Fraction
        self.sizes = {name: int(size) for name, size in doc["sorts"].items()}
        self.generators = {}
        for name, body in doc["generators"].items():
            dom, cod = tuple(body["dom"]), tuple(body["cod"])
            m = zeros(self.size(dom), self.size(cod))
            for row_labels, col_labels, value in body["entries"]:
                m.data[self.index(dom, row_labels)][self.index(cod, col_labels)] = parse(value)
            self.generators[name] = m

    def size(self, word) -> int:
        n = 1
        for s in word:
            n *= self.sizes[s]
        return n

    def index(self, word, labels) -> int:
        i = 0
        for s, label in zip(word, labels):
            i = i * self.sizes[s] + int(label)
        return i


class WorkLimitExceeded(Exception):
    pass


def nonzeros(m: Matrix) -> int:
    return sum(1 for row in m.data for v in row if v != 0)


class _Dense:
    """The exact matrices of the terms."""

    def __init__(self, interp: Interp):
        self.generators = interp.generators

    compose, tensor, identity = staticmethod(matmul), staticmethod(kron), staticmethod(identity)

    @staticmethod
    def compose_work(a: Matrix, b: Matrix) -> int:
        row_nnz = [sum(1 for w in row if w != 0) for row in b.data]
        return sum(row_nnz[k] for row in a.data for k, v in enumerate(row) if v != 0)

    @staticmethod
    def tensor_work(a: Matrix, b: Matrix) -> int:
        return nonzeros(a) * nonzeros(b)

    @staticmethod
    def delete(n: int) -> Matrix:
        return Matrix(n, 1, [[1] for _ in range(n)])

    @staticmethod
    def copy(n: int) -> Matrix:
        m = zeros(n, n * n)
        for i in range(n):
            m.data[i][i * n + i] = 1
        return m

    @staticmethod
    def swap(n: int, r: int) -> Matrix:
        m = zeros(n * r, r * n)
        for a in range(n):
            for b in range(r):
                m.data[a * r + b][b * n + a] = 1
        return m

    @staticmethod
    def dom(inner: Matrix) -> Matrix:
        m = zeros(inner.rows, inner.rows)
        for i, t in enumerate(row_totals(inner)):
            m.data[i][i] = t
        return m

    @staticmethod
    def mass(inner: Matrix) -> Matrix:
        return Matrix(inner.rows, 1, [[t] for t in row_totals(inner)])


class _Pattern:
    """Only where the entries are nonzero, one bit mask per row (bit j for
    column j).  Entries are nonnegative, so a sum of products is nonzero
    exactly when one product is, and the work comes out as in _Dense at a
    fraction of the cost."""

    def __init__(self, interp: Interp):
        self.generators = {
            name: Matrix(m.rows, m.cols, [_mask(row) for row in m.data])
            for name, m in interp.generators.items()
        }

    @staticmethod
    def compose(a: Matrix, b: Matrix) -> Matrix:
        out = []
        for row in a.data:
            acc = 0
            for k in _bits(row):
                acc |= b.data[k]
            out.append(acc)
        return Matrix(a.rows, b.cols, out)

    @staticmethod
    def compose_work(a: Matrix, b: Matrix) -> int:
        row_nnz = [row.bit_count() for row in b.data]
        return sum(row_nnz[k] for row in a.data for k in _bits(row))

    @staticmethod
    def tensor(a: Matrix, b: Matrix) -> Matrix:
        out = []
        for arow in a.data:
            for brow in b.data:
                acc = 0
                for j in _bits(arow):
                    acc |= brow << (j * b.cols)
                out.append(acc)
        return Matrix(a.rows * b.rows, a.cols * b.cols, out)

    @staticmethod
    def tensor_work(a: Matrix, b: Matrix) -> int:
        return sum(r.bit_count() for r in a.data) * sum(r.bit_count() for r in b.data)

    @staticmethod
    def identity(n: int) -> Matrix:
        return Matrix(n, n, [1 << i for i in range(n)])

    @staticmethod
    def delete(n: int) -> Matrix:
        return Matrix(n, 1, [1] * n)

    @staticmethod
    def copy(n: int) -> Matrix:
        return Matrix(n, n * n, [1 << (i * n + i) for i in range(n)])

    @staticmethod
    def swap(n: int, r: int) -> Matrix:
        return Matrix(n * r, r * n, [1 << (b * n + a) for a in range(n) for b in range(r)])

    @staticmethod
    def dom(inner: Matrix) -> Matrix:
        return Matrix(inner.rows, inner.rows, [1 << i if row else 0 for i, row in enumerate(inner.data)])

    @staticmethod
    def mass(inner: Matrix) -> Matrix:
        return Matrix(inner.rows, 1, [1 if row else 0 for row in inner.data])


def _mask(row: list) -> int:
    return sum(1 << j for j, v in enumerate(row) if v != 0)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def evaluate(text: str, interp: Interp, limit: int | None = None) -> tuple[Matrix, int]:
    """The term's matrix and its work: the products of nonzero entries that
    ';' and '*' form, which tracks a sparse evaluator's cost.  Raises
    WorkLimitExceeded, before doing the step, once work would pass `limit`."""
    return _evaluate(text, _Dense(interp), interp, limit)


def work(text: str, interp: Interp, limit: int | None = None) -> int:
    """The work that evaluate() reports, from the nonzero patterns alone."""
    return _evaluate(text, _Pattern(interp), interp, limit)[1]


def _evaluate(text: str, alg, interp: Interp, limit: int | None) -> tuple[Matrix, int]:
    tokens = [m.group(1) or m.group(2) for m in _TOKEN.finditer(text)]
    pos = 0
    work = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"expected {expected!r} at token {pos}, found {tok!r}")
        pos += 1
        return tok

    def word():
        parts = []
        while peek() not in ("]", ";"):
            parts.append(take())
            if peek() == ",":
                take(",")
        return tuple(parts)

    def charge(amount: int):
        nonlocal work
        work += amount
        if limit is not None and work > limit:
            raise WorkLimitExceeded(work)

    def term():
        m = tensor()
        while peek() == ";":
            take(";")
            right = tensor()
            charge(alg.compose_work(m, right))
            m = alg.compose(m, right)
        return m

    def tensor():
        m = atom()
        while peek() == "*":
            take("*")
            right = atom()
            charge(alg.tensor_work(m, right))
            m = alg.tensor(m, right)
        return m

    def atom():
        tok = take()
        if tok == "(":
            m = term()
            take(")")
            return m
        if tok in ("dom", "mass"):
            take("(")
            inner = term()
            take(")")
            return alg.mass(inner) if tok == "mass" else alg.dom(inner)
        if tok in ("id", "copy", "del", "swap"):
            take("[")
            left = word()
            right = ()
            if tok == "swap":
                take(";")
                right = word()
            take("]")
            n = interp.size(left)
            if tok == "id":
                return alg.identity(n)
            if tok == "del":
                return alg.delete(n)
            if tok == "copy":
                return alg.copy(n)
            return alg.swap(n, interp.size(right))
        if tok in alg.generators:
            return alg.generators[tok]
        raise ValueError(f"unknown generator {tok!r}")

    result = term()
    if pos != len(tokens):
        raise ValueError(f"trailing input at token {pos}: {tokens[pos]!r}")
    return result, work
