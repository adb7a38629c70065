"""Only the monad operations build weight maps without the zero test.

WeightMap._canonical skips the zero test over a positive semiring, which is
sound only for values that are sums and products of values of canonical
maps.  So the modules of gsrel name it only inside the six functions whose
values are made that way: wm_psi, wm_mu and wm_pushforward in weightmap,
and wrel_compose, _compose_over_ints and _tensor_rows in wrel (the row
kernel of wrel_tensor and _compose_tensor, which builds each row as the
wm_psi of two rows, without calling wm_psi).  Everything
else goes through WeightMap(...): outside input too, whose arrows
wrel_from_doc and the lazy generators of an interpretation build with
wm_make.  WRel._canonical is another method and is not counted.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gsrel"

TRUSTED = {
    "weightmap.py": {"wm_psi", "wm_mu", "wm_pushforward"},
    "wrel.py": {"wrel_compose", "_compose_over_ints", "_tensor_rows"},
}


def _names_weightmap(node) -> bool:
    """WeightMap, or a dotted name ending in it (weightmap.WeightMap)."""
    return getattr(node, "id", None) == "WeightMap" or getattr(node, "attr", None) == "WeightMap"


def trusted_uses(source: str) -> list[tuple[str, int]]:
    """(top-level name, line) of each WeightMap._canonical in code; the
    name is None at module level."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        found.extend(
            (owner, node.lineno)
            for node in ast.walk(top)
            if isinstance(node, ast.Attribute)
            and node.attr == "_canonical"
            and _names_weightmap(node.value)
        )
    return found


def outside_uses(source: str, allowed: set) -> list[tuple[str, int]]:
    """The uses that are not inside one of the allowed top-level functions."""
    return [(owner, line) for owner, line in trusted_uses(source) if owner not in allowed]


@pytest.mark.parametrize(
    "source",
    [
        "def wm_eta(sr, key):\n    return WeightMap._canonical(sr, {key: sr.one})",
        "def load(sr, doc):\n    return weightmap.WeightMap._canonical(sr, doc)",
        "build = WeightMap._canonical",
        "class Other:\n    def wm_psi(self, sr, acc):\n        return WeightMap._canonical(sr, acc)",
        "def wrel_from_doc(sr, doc):\n    return [WeightMap._canonical(sr, c) for c in doc]",
    ],
)
def test_pattern_catches_a_use_outside_the_operations(source):
    assert outside_uses(source, TRUSTED["weightmap.py"] | TRUSTED["wrel.py"])


@pytest.mark.parametrize(
    "source",
    [
        "def wm_psi(sr, h, k):\n    return WeightMap._canonical(sr, {})",
        "def _tensor_rows(sr, pairs):\n    def row():\n        return WeightMap._canonical(sr, {})",
        "def wrel_id(sr, word):\n    return WRel._canonical(word, word, {})",
        "# WeightMap._canonical in a comment",
        "doc = 'WeightMap._canonical'",
    ],
)
def test_pattern_passes_the_operations_and_other_methods(source):
    assert not outside_uses(source, TRUSTED["weightmap.py"] | TRUSTED["wrel.py"])


def test_only_the_monad_operations_skip_the_zero_test():
    for path in sorted(SRC.glob("*.py")):
        source, allowed = path.read_text(encoding="utf-8"), TRUSTED.get(path.name, set())
        assert outside_uses(source, allowed) == [], path.name
        # and each of the six still builds through it
        assert {owner for owner, _ in trusted_uses(source)} == allowed, path.name
