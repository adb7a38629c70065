"""Call-local sharing is the one caching pattern: no module-level cache.

A memo lives in a dict that dies with its call or its holder (one
semiring's run of the law suites, or one diagram query; one Structure
holder).  A process-wide cache would carry state from one call, or one
test, into the next.
"""
import re
from pathlib import Path

import pytest

SOURCE = sorted((Path(__file__).resolve().parent.parent / "src" / "gsrel").glob("*.py"))

FORBIDDEN = re.compile(
    r"lru_cache"
    r"|functools\.cache\b"
    r"|from\s+functools\s+import\s.*\bcache\b"
    r"|^_CACHE"
    r"|^\s*global\s"
)


def offending_lines(text: str) -> list[tuple[int, str]]:
    return [(n, line) for n, line in enumerate(text.splitlines(), 1) if FORBIDDEN.search(line)]


@pytest.mark.parametrize(
    "line",
    [
        "@functools.lru_cache(maxsize=None)",
        "@lru_cache",
        "@functools.cache",
        "from functools import cache",
        "from functools import partial, cache",
        "_CACHE = {}",
        "    global _seen",
    ],
)
def test_pattern_catches_module_caches(line):
    assert offending_lines(line)


@pytest.mark.parametrize(
    "line",
    ["memo: dict = {}", "from functools import reduce", "cached = memo.get(key)", "# global order"],
)
def test_pattern_passes_call_local_memos(line):
    assert not offending_lines(line)


def test_source_has_no_module_level_cache():
    assert SOURCE, "no source files found"
    found = {p.name: offending_lines(p.read_text(encoding="utf-8")) for p in SOURCE}
    assert {name: lines for name, lines in found.items() if lines} == {}
