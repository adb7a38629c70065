"""The README's library example runs and prints what the README says."""
import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"
ARROW_FLAGS = "ArrowFlags(total=False, copyable=False, domain_eq=False, mass_eq=False)"


def test_library_example_prints_its_arrow_flags(capsys):
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == ARROW_FLAGS
    assert f"# {ARROW_FLAGS}" in code.splitlines()
