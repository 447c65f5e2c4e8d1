"""README states the size limits that the code enforces, its API sketch runs,
and no test module defines a top-level name twice."""

import ast
import re
from pathlib import Path

import pytest

from winoctx import bootstrap, linprog, scenario

ROOT = Path(__file__).parents[1]
README = ROOT / "README.md"
SIZE_CONSTANTS = [
    (scenario, "MAX_OBSERVABLES"),
    (scenario, "MAX_TABLE_ENTRIES"),
    (scenario, "MAX_FACES"),
    (linprog, "MAX_SIZE"),
    (bootstrap, "MAX_RESAMPLES"),
]


def numbers(text):
    """The integers written in `text`, with or without thousands commas."""
    return {int(n.replace(",", "")) for n in re.findall(r"\d[\d,]*\d|\d", text)}


def test_readme_limits_state_every_size_constant():
    limits = README.read_text(encoding="utf-8").split("### Limits\n", 1)[1].split("\n#", 1)[0]
    bullets = limits.split("\n- ")
    for module, name in SIZE_CONSTANTS:
        qualified = f"`{module.__name__.removeprefix('winoctx.')}.{name}`"
        value = getattr(module, name)
        stated = [b for b in bullets if qualified in b]
        assert stated, f"README Limits does not name {qualified}"
        assert any(value in numbers(b) for b in stated), (
            f"README Limits does not state {qualified} = {value:,}")


def test_readme_python_api_sketch_runs_and_prints_the_documented_values(monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("## Python API sketch\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(ROOT)  # the sketch names its fixture from the repo root
    exec(compile(block, "README.md", "exec"), {})
    violation, cnt1, lp, closed_form = capsys.readouterr().out.splitlines()
    cf, gap = map(float, lp.split())
    assert float(violation) == pytest.approx(0.192, abs=1e-9)
    assert float(cnt1) == float(violation)
    assert cf == pytest.approx(0.096, abs=1e-9)
    assert cf == pytest.approx(float(closed_form), abs=1e-9)
    assert abs(gap) <= 1e-7


def test_no_test_module_defines_a_top_level_name_twice():
    # Python keeps the last definition of a name, so a test defined twice
    # would vanish from the suite without a failure
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        names = [node.name for node in ast.parse(path.read_text(encoding="utf-8")).body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        repeated = sorted({name for name in names if names.count(name) > 1})
        assert not repeated, f"{path.name} defines {repeated} twice"
