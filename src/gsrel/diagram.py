"""String-diagram DSL over weighted relations.

Grammar (';' composes left to right and binds loosest, '*' tensors and
binds tighter, both left-associative):

    term   := tensor (';' tensor)*
    tensor := atom ('*' atom)*
    atom   := 'id' '[' word ']' | 'copy' '[' word ']' | 'del' '[' word ']'
            | 'swap' '[' word ';' word ']'
            | 'dom' '(' term ')' | 'mass' '(' term ')'
            | '(' term ')' | NAME
    word   := (NAME (',' NAME)*)?

Bare names are generators; id/copy/del/swap/dom/mass are reserved.  'dom'
and 'mass' are primitives of the term language and are expanded by the
evaluator into their defining composites, so every equation is decided
along a single semantic path.  One evaluation query ('evaluate_term', or
both sides of 'check_term_equality') builds each structurally distinct
sub-term once and reuses its arrow wherever the sub-term recurs, and builds
each structural arrow (id, copy, del, swap) once per word.  '#' starts a
line comment.

The parser rejects a term whose syntax tree is more than MAX_TERM_DEPTH
levels high, or whose parentheses (those of dom and mass included) nest
deeper than that, with a ParseError: typechecking, evaluation and printing
walk the tree recursively.  evaluate_term and check_term_equality measure
the height of the trees they are given, which need not come from the
parser, and raise TermDepthError above the limit.

A term file is either a single term or a sequence of 'let name = term'
bindings.  An interpretation file carries a semiring reference, sort
sizes, and one serialized arrow per generator.

LAW_TABLE, at the end of this module, writes the Kleisli-level laws as
term equations: the gs-monoidal axioms (gsm/), the canonical semigroup
(cansem/), the dom lemmas (structural/), the scalar hom-monoids (homm/)
and the per-arrow equations behind the Kleisli flags (kleisli/).  The law
suites in gsrel.taxonomy bind its sorts to whole words and its generators
to arrows, case by case, and evaluate both sides with the evaluator that
eval and eq use; gsm_axiom_pairs prints the gsm/ rows.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

from .report import LawReport, check_cases
from .semiring import Semiring, SemiringError, load_semiring
from .wrel import (
    BoundaryError,
    Structure,
    WRel,
    WRelFormatError,
    _value_label,
    _word_str,
    finset_from_doc,
    finset_to_doc,
    wrel_compose,
    wrel_from_doc,
    wrel_tensor,
    word_labels,
)


class DiagramError(ValueError):
    """Base for term-language failures; subclasses carry locations."""


class ParseError(DiagramError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class TypecheckError(DiagramError):
    pass


class UnknownGeneratorError(TypecheckError):
    pass


class InterpFormatError(DiagramError):
    pass


class TermDepthError(DiagramError):
    """A syntax tree handed to the evaluator is deeper than MAX_TERM_DEPTH."""


# Deeper terms would exhaust Python's default recursion limit of 1000 in the
# recursive walks: equality of two deep sub-terms takes about three frames a
# level, and nested parentheses take three parser frames a level.
MAX_TERM_DEPTH = 200


# ---------------------------------------------------------------------------
# AST


def _node(cls):
    """A frozen dataclass that computes its hash once.  Evaluation memos
    hash each sub-term they meet, and the generated hash walks the whole
    subtree on every call."""
    cls = dataclass(frozen=True)(cls)
    field_hash = cls.__hash__

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = field_hash(self)
        return h

    cls.__hash__ = __hash__
    return cls


@_node
class Id:
    word: tuple


@_node
class Gen:
    name: str


@_node
class Seq:
    left: object
    right: object


@_node
class Tensor:
    left: object
    right: object


@_node
class Swap:
    left: tuple
    right: tuple


@_node
class Copy:
    word: tuple


@_node
class Del:
    word: tuple


@_node
class Dom:
    term: object


@_node
class Mass:
    term: object


KEYWORDS = {"id", "copy", "del", "swap", "dom", "mass", "let"}

_TOKEN_RE = re.compile(
    r"(?P<ws>[ \t\r\n]+)|(?P<comment>#[^\n]*)|(?P<name>[A-Za-z_][A-Za-z_0-9']*)"
    r"|(?P<punct>[;*()\[\],=])"
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        col = pos - line_start + 1
        if m.lastgroup == "name":
            tokens.append(Token("name", m.group(), line, col))
        elif m.lastgroup == "punct":
            tokens.append(Token(m.group(), m.group(), line, col))
        elif m.lastgroup == "ws":
            for c in m.group():
                pos += 1
                if c == "\n":
                    line += 1
                    line_start = pos
            continue
        pos = m.end()
    tokens.append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # parentheses open at the current position

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.line, tok.col)
        return self.next()

    def parse_whole_term(self):
        """A term whose syntax tree is at most MAX_TERM_DEPTH levels high."""
        start = self.peek()
        term = self.parse_term()
        if _height(term) > MAX_TERM_DEPTH:
            raise ParseError(
                f"term is nested more than {MAX_TERM_DEPTH} levels deep", start.line, start.col
            )
        return term

    def parse_term(self):
        node = self.parse_tensor()
        while self.peek().kind == ";":
            self.next()
            node = Seq(node, self.parse_tensor())
        return node

    def parse_tensor(self):
        node = self.parse_atom()
        while self.peek().kind == "*":
            self.next()
            node = Tensor(node, self.parse_atom())
        return node

    def open_group(self, tok: Token) -> None:
        """Consume a '(' and count it; returns before the group is parsed, so
        a nesting level costs the parser no extra frame."""
        self.expect("(")
        self.depth += 1
        if self.depth > MAX_TERM_DEPTH:
            raise ParseError(
                f"parentheses nest more than {MAX_TERM_DEPTH} levels deep", tok.line, tok.col
            )

    def close_group(self) -> None:
        self.expect(")")
        self.depth -= 1

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "(":
            self.open_group(tok)
            inner = self.parse_term()
            self.close_group()
            return inner
        if tok.kind != "name":
            raise ParseError(f"expected a term, found {tok.text or 'end of input'!r}", tok.line, tok.col)
        name = self.next().text
        if name == "let":
            raise ParseError("'let' is only allowed at the top of a term file", tok.line, tok.col)
        if name in ("dom", "mass"):
            self.open_group(tok)
            inner = self.parse_term()
            self.close_group()
            return Dom(inner) if name == "dom" else Mass(inner)
        if name in ("id", "copy", "del"):
            self.expect("[")
            word = self.parse_word()
            self.expect("]")
            return {"id": Id, "copy": Copy, "del": Del}[name](word)
        if name == "swap":
            self.expect("[")
            left = self.parse_word()
            self.expect(";")
            right = self.parse_word()
            self.expect("]")
            return Swap(left, right)
        return Gen(name)

    def parse_word(self) -> tuple:
        if self.peek().kind != "name":
            return ()
        parts = [self.parse_sort_name()]
        while self.peek().kind == ",":
            self.next()
            parts.append(self.parse_sort_name())
        return tuple(parts)

    def parse_sort_name(self) -> str:
        tok = self.expect("name")
        if tok.text in KEYWORDS:
            raise ParseError(f"{tok.text!r} is reserved and cannot name a sort", tok.line, tok.col)
        return tok.text


def _height(term) -> int:
    """Levels of the syntax tree, counted without recursion."""
    height = 0
    stack = [(term, 1)]
    while stack:
        node, level = stack.pop()
        height = max(height, level)
        if isinstance(node, (Seq, Tensor)):
            stack += [(node.left, level + 1), (node.right, level + 1)]
        elif isinstance(node, (Dom, Mass)):
            stack.append((node.term, level + 1))
    return height


def _parse_bare_term(parser: _Parser):
    """The parser's whole input, which must be one term."""
    term = parser.parse_whole_term()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input starting at {tok.text!r}", tok.line, tok.col)
    return term


def parse_term(text: str):
    return _parse_bare_term(_Parser(tokenize(text)))


def parse_term_file(text: str) -> dict:
    """Named bindings 'let name = term', or a single bare term named 'main'.
    The text is tokenized once, whichever shape it has."""
    parser = _Parser(tokenize(text))
    first = parser.peek()
    if first.kind == "eof":
        raise ParseError("empty term file", 1, 1)
    if not (first.kind == "name" and first.text == "let"):
        return {"main": _parse_bare_term(parser)}
    bindings: dict = {}
    while parser.peek().kind != "eof":
        kw = parser.expect("name")
        if kw.text != "let":
            raise ParseError(f"expected 'let', found {kw.text!r}", kw.line, kw.col)
        name_tok = parser.expect("name")
        if name_tok.text in KEYWORDS:
            raise ParseError(f"{name_tok.text!r} is reserved", name_tok.line, name_tok.col)
        if name_tok.text in bindings:
            raise ParseError(f"duplicate binding {name_tok.text!r}", name_tok.line, name_tok.col)
        parser.expect("=")
        term = parser.parse_whole_term()
        bindings[name_tok.text] = term
    return bindings


# ---------------------------------------------------------------------------
# printing


def print_term(term) -> str:
    return _render(term, 0)


def _prec(term) -> int:
    if isinstance(term, Seq):
        return 0
    if isinstance(term, Tensor):
        return 1
    return 2


def _render(term, min_prec: int) -> str:
    p = _prec(term)
    if isinstance(term, Seq):
        body = f"{_render(term.left, 0)} ; {_render(term.right, 1)}"
    elif isinstance(term, Tensor):
        body = f"{_render(term.left, 1)} * {_render(term.right, 2)}"
    elif isinstance(term, Id):
        body = f"id[{','.join(term.word)}]"
    elif isinstance(term, Copy):
        body = f"copy[{','.join(term.word)}]"
    elif isinstance(term, Del):
        body = f"del[{','.join(term.word)}]"
    elif isinstance(term, Swap):
        body = f"swap[{','.join(term.left)};{','.join(term.right)}]"
    elif isinstance(term, Dom):
        body = f"dom({_render(term.term, 0)})"
    elif isinstance(term, Mass):
        body = f"mass({_render(term.term, 0)})"
    elif isinstance(term, Gen):
        body = term.name
    else:
        raise TypeError(f"not a term: {term!r}")
    return f"({body})" if p < min_prec else body


# ---------------------------------------------------------------------------
# typechecking


@dataclass(frozen=True)
class Signature:
    sorts: tuple
    generators: Mapping  # name -> (dom word, cod word) of sort names


def _check_word(word: tuple, sig: Signature, context: str):
    for sort in word:
        if sort not in sig.sorts:
            raise TypecheckError(f"unknown sort {sort!r} in {context}")


def typecheck_term(term, sig: Signature) -> tuple[tuple, tuple]:
    """Boundary words (sort names) of the term, or a TypecheckError."""
    if isinstance(term, Id):
        _check_word(term.word, sig, "id")
        return term.word, term.word
    if isinstance(term, Copy):
        _check_word(term.word, sig, "copy")
        return term.word, term.word + term.word
    if isinstance(term, Del):
        _check_word(term.word, sig, "del")
        return term.word, ()
    if isinstance(term, Swap):
        _check_word(term.left + term.right, sig, "swap")
        return term.left + term.right, term.right + term.left
    if isinstance(term, Gen):
        if term.name not in sig.generators:
            raise UnknownGeneratorError(f"unknown generator {term.name!r}")
        return sig.generators[term.name]
    if isinstance(term, Seq):
        ldom, lcod = typecheck_term(term.left, sig)
        rdom, rcod = typecheck_term(term.right, sig)
        if lcod != rdom:
            raise TypecheckError(
                f"composition boundary mismatch: left produces [{','.join(lcod)}], "
                f"right expects [{','.join(rdom)}]"
            )
        return ldom, rcod
    if isinstance(term, Tensor):
        ldom, lcod = typecheck_term(term.left, sig)
        rdom, rcod = typecheck_term(term.right, sig)
        return ldom + rdom, lcod + rcod
    if isinstance(term, (Dom, Mass)):
        dom, _cod = typecheck_term(term.term, sig)
        return (dom, dom) if isinstance(term, Dom) else (dom, ())
    raise TypeError(f"not a term: {term!r}")


# ---------------------------------------------------------------------------
# interpretations and evaluation


class Interpretation:
    """Semiring, sort assignment, and generator arrows for a signature."""

    def __init__(self, semiring: Semiring, sorts: Mapping, generators: Mapping, gen_sig: Mapping):
        self.semiring = semiring
        self.sorts = dict(sorts)
        self.generators = dict(generators)
        self.gen_sig = dict(gen_sig)
        for name, (dw, cw) in self.gen_sig.items():
            arrow = self.generators[name]
            if arrow.dom != self.word(dw) or arrow.cod != self.word(cw):
                raise InterpFormatError(
                    f"generator {name!r}: arrow boundary does not match declared sorts"
                )

    def word(self, sort_word: tuple) -> tuple:
        missing = [s for s in sort_word if s not in self.sorts]
        if missing:
            raise TypecheckError(f"unknown sort {missing[0]!r}")
        return tuple(self.sorts[s] for s in sort_word)

    def signature(self) -> Signature:
        return Signature(tuple(sorted(self.sorts)), dict(self.gen_sig))


def _check_depth(term) -> None:
    """Refuse a tree the recursive walks could not finish."""
    if _height(term) > MAX_TERM_DEPTH:
        raise TermDepthError(f"term is nested more than {MAX_TERM_DEPTH} levels deep")


def evaluate_term(term, interp: Interpretation) -> WRel:
    """Evaluate after typechecking; dom/mass expand to defining composites."""
    _check_depth(term)
    typecheck_term(term, interp.signature())
    return _query_case(interp).eval(term)


def _query_case(interp: Interpretation) -> _LawCase:
    """The interpretation as one evaluation case: each sort a one-set word."""
    sorts = {name: (s,) for name, s in interp.sorts.items()}
    return _LawCase(Structure(interp.semiring), sorts, interp.generators)


def _eval(term, case: _LawCase) -> WRel:
    """Arrow of a typechecked term.  `case.memo` maps each sub-term evaluated
    on the case to its arrow; AST nodes are frozen, so structurally equal
    sub-terms share one entry and are built once.  `case.st` builds the
    structural arrows of the id/copy/del/swap nodes and of the dom/mass
    expansions once per word."""
    arrow = case.memo.get(term)
    if arrow is not None:
        return arrow
    st = case.st
    if isinstance(term, Id):
        arrow = st.id(case.word(term.word))
    elif isinstance(term, Copy):
        arrow = st.copy(case.word(term.word))
    elif isinstance(term, Del):
        arrow = st.discard(case.word(term.word))
    elif isinstance(term, Swap):
        arrow = st.swap(case.word(term.left), case.word(term.right))
    elif isinstance(term, Gen):
        arrow = case.generators[term.name]
    elif isinstance(term, (Seq, Tensor)):
        op = wrel_compose if isinstance(term, Seq) else wrel_tensor
        arrow = op(st.sr, _eval(term.left, case), _eval(term.right, case))
    elif isinstance(term, Dom):
        arrow = st.dom(_eval(term.term, case))
    elif isinstance(term, Mass):
        arrow = st.mass(_eval(term.term, case))
    else:
        raise TypeError(f"not a term: {term!r}")
    case.memo[term] = arrow
    return arrow


def check_term_equality(t1, t2, interp: Interpretation, law: str = "term-eq") -> LawReport:
    """Evaluate both terms and compare entrywise; boundary mismatch raises.

    Both terms are typechecked first, then evaluated on one case, so a
    sub-term or structural arrow the two sides share is built once."""
    _check_depth(t1)
    _check_depth(t2)
    sig = interp.signature()
    typecheck_term(t1, sig)
    typecheck_term(t2, sig)
    case = _query_case(interp)
    f = case.eval(t1)
    g = case.eval(t2)
    if f.boundary() != g.boundary():
        raise TypecheckError(
            f"terms have different boundaries: {_word_str(f.dom)} -> {_word_str(f.cod)} vs "
            f"{_word_str(g.dom)} -> {_word_str(g.cod)}"
        )
    sr = interp.semiring
    keys = {(x, y) for arrow in (f, g) for x, h in arrow.rows for y, _v in h.entries}
    return check_cases(
        law,
        sorted(keys),
        lambda k: f.value(sr, *k) == g.value(sr, *k),
        describe=lambda k: {
            "row": word_labels(f.dom, k[0]),
            "col": word_labels(f.cod, k[1]),
            "left": _value_label(sr, f.value(sr, *k)),
            "right": _value_label(sr, g.value(sr, *k)),
        },
        exhaustive=True,
    )


# ---------------------------------------------------------------------------
# interpretation documents


def load_interpretation(doc: Mapping) -> Interpretation:
    if not isinstance(doc, Mapping):
        raise InterpFormatError("interpretation document must be an object")
    for key in ("semiring", "sorts", "generators"):
        if key not in doc:
            raise InterpFormatError(f"interpretation document missing field {key!r}")
    for key in ("sorts", "generators"):
        if not isinstance(doc[key], Mapping):
            raise InterpFormatError(f"interpretation field {key!r} must be an object")
    try:
        sr = load_semiring(doc["semiring"])
    except SemiringError as e:
        raise InterpFormatError(str(e)) from None
    sorts = {}
    for name, spec in doc["sorts"].items():
        if type(spec) is int:
            spec = {"size": spec}
        if not isinstance(spec, Mapping):
            raise InterpFormatError(f"bad sort spec for {name!r}: {spec!r}")
        try:
            sorts[name] = finset_from_doc({**spec, "name": name})
        except WRelFormatError as e:
            raise InterpFormatError(f"bad sort spec for {name!r}: {e}") from None
    generators = {}
    gen_sig = {}
    for name, body in doc["generators"].items():
        if not isinstance(body, Mapping) or not all(
            isinstance(body.get(key), list) for key in ("dom", "cod")
        ):
            raise InterpFormatError(f"generator {name!r} needs 'dom' and 'cod' sort words")
        dw = tuple(body["dom"])
        cw = tuple(body["cod"])
        for s in dw + cw:
            # a list or object here is unhashable, so test the type first
            if not isinstance(s, str):
                raise InterpFormatError(f"generator {name!r}: sort name {s!r} is not a string")
            if s not in sorts:
                raise InterpFormatError(f"generator {name!r} uses undeclared sort {s!r}")
        arrow_doc = {
            "dom": [finset_to_doc(sorts[s]) for s in dw],
            "cod": [finset_to_doc(sorts[s]) for s in cw],
            "entries": body.get("entries", []),
        }
        try:
            generators[name] = wrel_from_doc(sr, arrow_doc)
        except (WRelFormatError, BoundaryError) as e:
            raise InterpFormatError(f"generator {name!r}: {e}") from None
        gen_sig[name] = (dw, cw)
    return Interpretation(sr, sorts, generators, gen_sig)


# ---------------------------------------------------------------------------
# the law table

# The Kleisli-level laws as term equations: (law id, generator types, pairs).
# A row holds where each of its (lhs, rhs) pairs evaluates to one arrow.  The
# sorts A, B, X, Y stand for whole words, and a row's generators for arrows,
# both bound per case by the law suites in taxonomy.  Scalar multiplication
# of arrows Y -> I is copy[Y] ; (f * g).
_ARROW = {"f": (("X",), ("Y",))}
_SCALARS = {name: (("Y",), ()) for name in ("f", "g", "h")}
_COUNIT_RIGHT = ("copy[A] ; (id[A] * del[A])", "id[A]")

LAW_TABLE = (
    ("gsm/copy-coassoc", {}, [("copy[A] ; (copy[A] * id[A])", "copy[A] ; (id[A] * copy[A])")]),
    ("gsm/copy-cocomm", {}, [("copy[A] ; swap[A;A]", "copy[A]")]),
    ("gsm/copy-counit-right", {}, [_COUNIT_RIGHT]),
    ("gsm/copy-counit-left", {}, [("copy[A] ; (del[A] * id[A])", "id[A]")]),
    (
        "gsm/copy-tensor-mult",
        {},
        [("copy[A,B]", "(copy[A] * copy[B]) ; (id[A] * swap[A;B] * id[B])")],
    ),
    ("gsm/del-tensor-mult", {}, [("del[A,B]", "del[A] * del[B]")]),
    ("gsm/unit-object", {}, [("copy[]", "id[]"), ("del[]", "id[]"), ("copy[] * del[]", "id[]")]),
    # copy ; (id * del) = id: id * del is the canonical semigroup multiplication
    ("cansem/special-semigroup", {}, [_COUNIT_RIGHT]),
    ("cansem/unit-monoid", {}, [("id[] * del[]", "id[]"), ("copy[]", "id[]"), ("del[]", "id[]")]),
    ("structural/dom-after-discharge", _ARROW, [("dom(mass(f))", "dom(f)")]),
    ("structural/dom-after-copy", _ARROW, [("dom(f ; copy[Y])", "dom(f)")]),
    ("structural/dom-before-copy", _ARROW, [("dom(copy[X] ; (f * f))", "dom(f)")]),
    (
        "homm/mul-assoc",
        _SCALARS,
        [("copy[Y] ; ((copy[Y] ; (f * g)) * h)", "copy[Y] ; (f * (copy[Y] ; (g * h)))")],
    ),
    ("homm/mul-comm", _SCALARS, [("copy[Y] ; (f * g)", "copy[Y] ; (g * f)")]),
    ("homm/mul-unit", _SCALARS, [("copy[Y] ; (del[Y] * f)", "f"), ("copy[Y] ; (f * del[Y])", "f")]),
    # the per-arrow equations; the suite binds g to the inverse of f in weakly-markov
    ("kleisli/markov", _ARROW, [("mass(f)", "del[X]")]),
    ("kleisli/restriction", _ARROW, [("f ; copy[Y]", "copy[X] ; (f * f)")]),
    ("kleisli/domain-category", _ARROW, [("dom(f) ; f", "f")]),
    ("kleisli/mass-category", _ARROW, [("dom(f) ; mass(f)", "mass(f)")]),
    ("kleisli/weakly-markov", _SCALARS, [("copy[Y] ; (f * g)", "del[Y]")]),
)

_LAWS = {
    law: tuple((parse_term(lhs), parse_term(rhs)) for lhs, rhs in pairs)
    for law, _generators, pairs in LAW_TABLE
}

# ArrowFlags field -> the row that decides it
_FLAG_LAWS = {
    "total": "kleisli/markov",
    "copyable": "kleisli/restriction",
    "domain_eq": "kleisli/domain-category",
    "mass_eq": "kleisli/mass-category",
}


class _LawCase:
    """One evaluation case: sort names bound to whole words (a sort may stand
    for a multi-set word or the empty word) and generators to arrows.

    A law-table row and a diagram query are both evaluated on one.  It keeps
    one memo, so the terms evaluated on the case share their sub-terms; `st`
    is the structure holder of the run or of the query."""

    __slots__ = ("st", "sorts", "generators", "memo")

    def __init__(self, st: Structure, sorts: Mapping, generators: Mapping | None = None):
        self.st = st
        self.sorts = sorts
        self.generators = generators or {}
        self.memo: dict = {}

    def word(self, sort_word: tuple) -> tuple:
        return tuple(s for name in sort_word for s in self.sorts[name])

    def eval(self, term) -> WRel:
        return _eval(term, self)

    def holds(self, law: str) -> bool:
        return all(self.eval(lhs) == self.eval(rhs) for lhs, rhs in _LAWS[law])


def _arrow_case(st: Structure, f: WRel) -> _LawCase:
    """f bound as the generator f : X -> Y of the structural and kleisli rows."""
    return _LawCase(st, {"X": f.dom, "Y": f.cod}, {"f": f})


def gsm_axiom_pairs(a: str = "A", b: str = "B") -> list[tuple[str, str, str]]:
    """The seven structural axiom schemas as printable term pairs, one per
    gsm/ row of LAW_TABLE over the sort names a and b; unit-object prints
    its last equation."""
    # the rows' only capitals are the sort names A and B
    rename = str.maketrans({"A": a, "B": b})
    return [
        (law.removeprefix("gsm/"), *(side.translate(rename) for side in pairs[-1]))
        for law, _generators, pairs in LAW_TABLE
        if law.startswith("gsm/")
    ]
