"""No module of the package or of the tests imports a name it never uses.

A stdlib-only stand-in for a linter's unused-import rule: each file is
parsed with ``ast``, and every name bound by a module-level import must
be referenced somewhere in the file or listed in its ``__all__``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src" / "spectral_walk").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.partition(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "__all__"):
            used |= {elt.value for elt in node.value.elts}
    return [f"line {line}: {name}" for line, name in bound if name not in used]


def test_checker_flags_unused_and_accepts_used_names():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Callable, Sequence\n"
        "from .errors import UsageError\n"
        "__all__ = ['UsageError']\n"
        "def f(x: Sequence[int]) -> int:\n"
        "    return np.sum(os.path.sep)\n"
    )
    assert unused_imports(source) == ["line 2: math", "line 5: Callable"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text()) == []
