"""Access to the bundled example files."""

from __future__ import annotations

from importlib.resources import files
from pathlib import Path

_ROOT = files("winoctx") / "fixtures"


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled fixture; raises if it does not exist."""
    path = Path(str(_ROOT / name))
    if not path.is_file():
        available = ", ".join(sorted(p.name for p in Path(str(_ROOT)).iterdir()))
        raise FileNotFoundError(f"no fixture {name!r}; bundled: {available}")
    return path
