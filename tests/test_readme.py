"""README's Layout block against the package: it names every module of
src/posetlab except __init__.py, and no module that does not exist."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def layout_modules():
    """The module names listed under src/posetlab/ in the Layout block."""
    block = (ROOT / "README.md").read_text(encoding="utf-8").split("## Layout", 1)[1].split("```")[1]
    section = block.split("src/posetlab/\n", 1)[1]
    section = re.split(r"^\S", section, maxsplit=1, flags=re.M)[0]  # up to the next top-level entry
    return re.findall(r"^  (\S+\.py)\s", section, flags=re.M)


def test_layout_names_every_module_and_no_other():
    named = layout_modules()
    present = {p.name for p in (ROOT / "src" / "posetlab").glob("*.py")} - {"__init__.py"}
    assert len(named) == len(set(named)), named
    assert sorted(present - set(named)) == [], "modules missing from the README Layout block"
    assert sorted(set(named) - present) == [], "README Layout block names modules that do not exist"
