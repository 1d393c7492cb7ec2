"""README stays true to the code: the sections the code cites and the names it gives."""

import importlib
import pathlib
import pkgutil
import re

import numpy as np

import pairorth
from pairorth import build_unit_column_matrix
from pairorth.process import _ChainStack

ROOT = pathlib.Path(__file__).resolve().parent.parent
SUBMODULES = {module.name for module in pkgutil.iter_modules(pairorth.__path__)}


def readme_headings(text: str) -> set[str]:
    # the Markdown headings, outside fenced code blocks (whose # lines are comments)
    headings, fenced = set(), False
    for line in text.splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif not fenced and line.startswith("#"):
            headings.add(line.lstrip("#").strip())
    return headings


def test_every_cited_readme_section_is_a_heading():
    # a citation reads README, "<section>", and may break its line inside a docstring
    # or a comment
    cited = {(path.relative_to(ROOT).as_posix(), " ".join(section.split()))
             for folder in ("src", "tools") for path in sorted((ROOT / folder).rglob("*.py"))
             for section in re.findall(r'README,\s*(?:#\s*)?"([^"]+)"', path.read_text())}
    assert cited
    headings = readme_headings((ROOT / "README.md").read_text())
    assert sorted(c for c in cited if c[1] not in headings) == []


def test_every_name_readme_gives_exists():
    # `<submodule>.<name>` (or `pairorth.<submodule>`) and `_ChainStack.<member>`, whose
    # instance attributes are looked up on a stack of one
    stack = _ChainStack(build_unit_column_matrix(np.eye(3)), 1)
    named = set(re.findall(r"`(\w+)\.(\w+)`", (ROOT / "README.md").read_text()))
    checked, missing = 0, []
    for owner, name in sorted(named):
        if owner == "_ChainStack":
            found = hasattr(stack, name)
        elif owner == "pairorth":
            found = name in SUBMODULES
        elif owner in SUBMODULES:
            found = hasattr(importlib.import_module(f"pairorth.{owner}"), name)
        else:
            continue
        checked += 1
        if not found:
            missing.append(f"{owner}.{name}")
    assert checked >= 10
    assert missing == []
