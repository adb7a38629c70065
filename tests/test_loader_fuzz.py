"""Document loaders fail only with their own error family, whatever JSON they get."""
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gsrel import (
    InterpFormatError,
    ParseError,
    TableFormatError,
    load_interpretation,
    load_semiring,
    load_table_semiring,
    parse_term_file,
)
from gsrel.wrel import BoundaryError, WRelFormatError, finset_to_doc, wrel_from_doc

# Wrongly typed JSON values: scalars, and one level of lists and objects
# (unhashable, so a loader that looks them up in a dict must test types first).
# Strings come from a small alphabet so that they hit the sort names, labels
# and semiring names below now and then.
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 5)
    | st.floats(allow_nan=False, allow_infinity=False)
)
STRINGS = st.sampled_from(["A", "B", "0", "1", "2", "a", "-1", "1/2", "2.7", "bool", "nat", ""])
JSON = (
    SCALARS
    | STRINGS
    | st.lists(SCALARS | STRINGS, max_size=2)
    | st.dictionaries(STRINGS, SCALARS | STRINGS, max_size=2)
)


def sometimes(strategy):
    """The well-formed shape three times in four, else a wrongly typed value,
    so that a document often gets deep enough to reach a late check."""
    return st.integers(0, 3).flatmap(lambda i: strategy if i else JSON)


LABEL = sometimes(st.sampled_from(["0", "1", "2", "a", "b"]))
SORT_NAME = sometimes(st.sampled_from(["A", "B"]))
SIZE = sometimes(st.integers(0, 3))
FINSET = sometimes(
    st.fixed_dictionaries(
        {"name": SORT_NAME, "size": SIZE},
        optional={"labels": sometimes(st.lists(LABEL, max_size=3))},
    )
)
ENTRY = sometimes(
    st.tuples(st.lists(LABEL, max_size=2), st.lists(LABEL, max_size=2), LABEL).map(list)
)
ENTRIES = sometimes(st.lists(ENTRY, max_size=4))
ARROW = sometimes(
    st.fixed_dictionaries(
        {"dom": sometimes(st.lists(FINSET, max_size=2)),
         "cod": sometimes(st.lists(FINSET, max_size=2)),
         "entries": ENTRIES}
    )
)
SORT_SPEC = SIZE | st.fixed_dictionaries(
    {"size": SIZE}, optional={"labels": sometimes(st.lists(LABEL, max_size=3))}
)
GENERATOR = sometimes(
    st.fixed_dictionaries(
        {"dom": sometimes(st.lists(SORT_NAME, max_size=2)),
         "cod": sometimes(st.lists(SORT_NAME, max_size=2))},
        optional={"entries": ENTRIES},
    )
)
# The three top-level fields are always objects here; wrongly typed ones are
# rejected first and have their own tests, and fuzzing them would keep most
# documents from reaching the sorts and generators.
INTERPRETATION = st.fixed_dictionaries(
    {"semiring": sometimes(st.sampled_from(["bool", "nat", "q+", "gf(3)"])),
     "sorts": st.dictionaries(st.sampled_from(["A", "B"]), SORT_SPEC, max_size=2),
     "generators": st.dictionaries(st.sampled_from(["f", "g"]), GENERATOR, max_size=2)}
)
# A few dozen fixed examples keep Tier-1 fast; 3,000 random ones per test
# were run without a failure when these loaders were last changed.
FUZZ = settings(
    max_examples=50,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(INTERPRETATION)
@FUZZ
def test_load_interpretation_raises_only_interp_format_error(doc):
    try:
        load_interpretation(doc)
    except InterpFormatError:
        pass


# Documents that load: the fuzzed ones above seldom get a generator with an
# entry through every check.  Entries are drawn from the sort labels, and
# values from labels each carrier parses, zero included.
VALUES = {"bool": ["0", "1"], "nat": ["0", "1", "2", "7"], "q+": ["0", "1/2", "3"],
          "gf(3)": ["0", "1", "2"]}


@st.composite
def loadable_interpretations(draw):
    semiring = draw(st.sampled_from(sorted(VALUES)))
    sizes = {name: draw(st.integers(0, 3)) for name in ("A", "B")}
    labels = {"A": [f"a{i}" for i in range(sizes["A"])], "B": [str(i) for i in range(sizes["B"])]}
    generators = {}
    for name in draw(st.lists(st.sampled_from(["f", "g"]), unique=True)):
        dom, cod = (draw(st.lists(st.sampled_from(["A", "B"]), max_size=2)) for _ in range(2))
        cells = {}
        # a word with an empty sort has no elements, so no entries
        if all(labels[s] for s in dom + cod):
            keys = st.tuples(*(st.sampled_from(labels[s]) for s in dom + cod))
            values = st.sampled_from(VALUES[semiring])
            cells = draw(st.dictionaries(keys, values, min_size=1, max_size=6))
        entries = [[list(k[:len(dom)]), list(k[len(dom):]), v] for k, v in cells.items()]
        generators[name] = {"dom": dom, "cod": cod, "entries": entries}
    return {
        "semiring": semiring,
        "sorts": {"A": {"size": sizes["A"], "labels": labels["A"]}, "B": sizes["B"]},
        "generators": generators,
    }


# Half the examples load, and about one generator in two that loads has
# entries; 200 examples take under a second.
@given(INTERPRETATION | loadable_interpretations())
@settings(FUZZ, max_examples=200)
def test_a_loaded_generator_builds_as_its_own_document_does(doc):
    # load_interpretation checks every generator and builds none; once it
    # succeeds, reading a generator builds its arrow without raising, and
    # that arrow is the one wrel_from_doc makes of the generator's document
    try:
        interp = load_interpretation(doc)
    except InterpFormatError:
        return
    assert list(interp.generators) == list(doc["generators"])
    for name, body in doc["generators"].items():
        arrow_doc = {
            "dom": [finset_to_doc(interp.sorts[s]) for s in body["dom"]],
            "cod": [finset_to_doc(interp.sorts[s]) for s in body["cod"]],
            "entries": body.get("entries", []),
        }
        assert interp.generators[name] == wrel_from_doc(interp.semiring, arrow_doc)


@given(st.sampled_from(["bool", "nat", "q+", "gf(3)"]), ARROW)
@FUZZ
def test_wrel_from_doc_raises_only_its_format_errors(semiring, doc):
    try:
        wrel_from_doc(load_semiring(semiring), doc)
    except (WRelFormatError, BoundaryError):
        pass


TABLE_FIELDS = ["elements", "plus", "times", "zero", "one"]
ELEMENT = sometimes(st.sampled_from(["0", "1", "2"]))
ROW = sometimes(st.lists(ELEMENT, min_size=1, max_size=3))
TABLE = sometimes(st.lists(ROW, min_size=1, max_size=3))
TABLE_DOC = (
    st.fixed_dictionaries(
        {"elements": sometimes(st.lists(ELEMENT, min_size=1, max_size=3)),
         "plus": TABLE,
         "times": TABLE,
         "zero": ELEMENT,
         "one": ELEMENT},
        optional={"name": JSON},
    )
    # a missing field, or a whole document of the wrong type: a list that
    # holds the field names must not pass the field-presence check
    | st.dictionaries(st.sampled_from(TABLE_FIELDS), JSON, max_size=4)
    | st.lists(st.sampled_from(TABLE_FIELDS), max_size=5)
    | JSON
)


@given(TABLE_DOC)
@FUZZ
def test_load_table_semiring_raises_only_table_format_error(doc):
    try:
        load_table_semiring(doc)
    except TableFormatError:
        pass


def test_load_table_semiring_rejects_documents_that_are_not_objects():
    for doc in (TABLE_FIELDS, 5, "elements", None):
        with pytest.raises(TableFormatError, match="must be an object"):
            load_table_semiring(doc)


# Term files: token soup from the term language, and deep nestings of the
# three recursive shapes (parentheses, dom/mass and long chains), which must
# be refused with a ParseError rather than exhaust the recursion limit.
TOKEN = st.sampled_from(
    ["f", "g", "A", "B", "id", "copy", "del", "swap", "dom", "mass", "let", "main",
     ";", "*", "(", ")", "[", "]", ",", "=", "#", "\n", "$", "1"]
)
SOUP = st.lists(TOKEN, max_size=20).map(" ".join)
DEEP = st.tuples(st.sampled_from(["(", "dom(", "mass(", "f ; ", "f * "]), st.integers(150, 3000)).map(
    lambda p: p[0] * p[1] + "f" + ")" * (p[1] * p[0].count("("))
)
TERM_FILE = SOUP | DEEP | st.tuples(SOUP, DEEP).map(lambda p: "let main = " + p[1] + " " + p[0])


@given(TERM_FILE)
@FUZZ
def test_parse_term_file_raises_only_parse_error(text):
    try:
        parse_term_file(text)
    except ParseError:
        pass
