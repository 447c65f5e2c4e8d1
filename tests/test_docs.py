"""README states the size limits that the code enforces."""

import re
from pathlib import Path

from winoctx import bootstrap, linprog, scenario

README = Path(__file__).parents[1] / "README.md"
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
