"""No module of the package or of the tests imports a name it never
uses, and no private helper or method of the package is left
unreferenced.

A stdlib-only stand-in for a linter's unused-import and dead-code
rules: each file is parsed with ``ast``. Every name bound by a
module-level import must be referenced somewhere in the file or listed
in its ``__all__``. Every module-level private function, class and
constant of the package must be read somewhere in the package. Every
method and property of a package class, dunders aside, must be read as
an attribute by the package, a demo, the bench or the acceptance suite:
one that only unit tests call is API no user path needs.  No module of
the package binds a dict, list or set at module level, ``__all__``
aside: state that outlives a call belongs to the object it describes.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "spectral_walk").glob("*.py"))
USERS = sorted([*PACKAGE, *(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py"),
                ROOT / "tests" / "test_acceptance.py"])
FILES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


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


def unreferenced_private_names(sources: list[str]) -> list[str]:
    """Module-level ``_name`` functions, classes and constants that no
    source reads, as a bare name or as an attribute."""
    trees = [ast.parse(source) for source in sources]
    defined = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [t.id for t in targets if isinstance(t, ast.Name)]
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    private = [name for name in defined if name.startswith("_") and not name.startswith("__")]
    return [name for name in private if name not in read]


def test_dead_helper_checker_flags_unread_private_names():
    module = (
        "_USED = 1\n"
        "_UNUSED: int = 2\n"
        "__all__ = ['f']\n"
        "def _helper():\n"
        "    return _USED\n"
        "class _Gone:\n"
        "    pass\n"
        "def f():\n"
        "    _local = 3\n"
        "    return _local\n"
    )
    caller = "import mod\nmod._helper()\n"
    assert unreferenced_private_names([module, caller]) == ["_UNUSED", "_Gone"]


def test_no_unreferenced_private_helpers_in_package():
    assert unreferenced_private_names([path.read_text() for path in PACKAGE]) == []


def unread_methods(defining: list[str], reading: list[str]) -> list[str]:
    """``Class.method`` for each method or property defined on a class of
    the ``defining`` sources, dunders aside, whose name no ``reading``
    source reads as an attribute."""
    defined = []
    for tree in map(ast.parse, defining):
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                defined += [(cls.name, node.name) for node in cls.body
                            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (node.name.startswith("__") and node.name.endswith("__"))]
    read = {node.attr for tree in map(ast.parse, reading)
            for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return [f"{cls}.{name}" for cls, name in defined if name not in read]


def test_unread_method_checker_flags_methods_no_user_reads():
    package = (
        "class Rates:\n"
        "    def __post_init__(self):\n"
        "        self._check()\n"
        "    def _check(self):\n"
        "        pass\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 1\n"
        "    def lambda_at(self, i):\n"
        "        return 0.0\n"
        "    @classmethod\n"
        "    def build(cls):\n"
        "        return cls()\n"
    )
    user = "rates = Rates.build()\nprint(rates.size)\n"
    assert unread_methods([package], [package, user]) == ["Rates.lambda_at"]


def test_no_package_method_only_unit_tests_read():
    assert unread_methods([path.read_text() for path in PACKAGE],
                          [path.read_text() for path in USERS]) == []


MUTABLE_DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def module_level_containers(source: str) -> list[str]:
    """Names other than ``__all__`` that a module-level assignment binds
    to a dict, list or set display, comprehension or constructor call."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)) or node.value is None:
            continue
        value = node.value
        mutable = isinstance(value, MUTABLE_DISPLAYS) or (
            isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id in ("dict", "list", "set"))
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        found += [f"line {node.lineno}: {t.id}" for t in targets
                  if mutable and isinstance(t, ast.Name) and t.id != "__all__"]
    return found


def test_container_checker_flags_module_level_state():
    source = (
        "__all__ = ['f']\n"
        "_CAP = 4\n"
        "_TIMES = (0.1, 0.5)\n"
        "_last = {}\n"
        "_seen: set = set()\n"
        "_rows = [i for i in range(3)]\n"
        "def f():\n"
        "    local = {}\n"
        "    return local\n"
    )
    assert module_level_containers(source) == ["line 4: _last", "line 5: _seen", "line 6: _rows"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_module_level_containers_in_package(path):
    assert module_level_containers(path.read_text()) == []
