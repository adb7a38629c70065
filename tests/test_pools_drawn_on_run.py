"""Every pool of the law suites is drawn through _Run.

taxonomy names the pool builders (variant_maps, variant_arrows, _maps_over
and _first_members) only inside class _Run, whose maps, nested and arrows
methods are the one place that decides how a pool is built and whether it
is complete.  Importing a builder is not a use of it.
"""
import ast
from pathlib import Path

import pytest

TAXONOMY = Path(__file__).resolve().parent.parent / "src" / "gsrel" / "taxonomy.py"

BUILDERS = {"variant_maps", "variant_arrows", "_maps_over", "_first_members"}


def builder_uses(source: str) -> tuple[list, list]:
    """(line, name) of each builder named in code, inside class _Run and outside it."""
    inside, outside = [], []
    for top in ast.parse(source).body:
        found = [
            (node.lineno, name)
            for node in ast.walk(top)
            for name in (getattr(node, "id", None), getattr(node, "attr", None))
            if isinstance(node, (ast.Name, ast.Attribute)) and name in BUILDERS
        ]
        in_run = isinstance(top, ast.ClassDef) and top.name == "_Run"
        (inside if in_run else outside).extend(found)
    return inside, outside


@pytest.mark.parametrize(
    "source",
    [
        "def f(run):\n    return variant_maps(run.sr, w, 'M', 0, 4)",
        "x = weightmap._first_members(sr, stream, 'M', 2)",
        "class Other:\n    def g(self):\n        return _maps_over(sr, keys, 'M')",
        "draw = variant_arrows",
    ],
)
def test_pattern_catches_builders_outside_run(source):
    assert builder_uses(source)[1]


@pytest.mark.parametrize(
    "source",
    [
        "from .weightmap import _first_members, _maps_over, variant_maps",
        "class _Run:\n    def maps(self):\n        return variant_maps(self.sr)",
        "# variant_arrows in a comment",
        "doc = 'variant_arrows'",
    ],
)
def test_pattern_passes_imports_and_run_methods(source):
    assert not builder_uses(source)[1]


def test_taxonomy_names_pool_builders_only_inside_run():
    inside, outside = builder_uses(TAXONOMY.read_text(encoding="utf-8"))
    assert outside == []
    assert {name for _, name in inside} == BUILDERS
