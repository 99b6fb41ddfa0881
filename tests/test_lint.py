"""Source rules, checked by parsing the package more than by running it."""

import ast
from pathlib import Path

import pytest

import catkg

SRC = Path(__file__).resolve().parent.parent / "src" / "catkg"


def private_tensor_names(source: str, filename: str) -> list[str]:
    """Every use of a private name of ``catkg.tensor`` in ``source``:
    an attribute ``T._x`` on a name bound to the module, or an import
    ``from .tensor import _x``. The tape protocol stays behind
    ``tensor.py``; other modules build their outputs with ``T.node``."""
    tree = ast.parse(source, filename)
    aliases = {"T", "tensor"}
    for stmt in ast.walk(tree):
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            aliases.update(a.asname or a.name for a in stmt.names
                           if a.name.rsplit(".", 1)[-1] == "tensor")
    found = []
    for n in ast.walk(tree):
        if (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                and n.value.id in aliases and n.attr.startswith("_")):
            found.append(f"{filename}:{n.lineno}: {n.value.id}.{n.attr}")
        elif (isinstance(n, ast.ImportFrom) and n.module
              and n.module.rsplit(".", 1)[-1] == "tensor"):
            found.extend(f"{filename}:{n.lineno}: import {a.name}"
                         for a in n.names if a.name.startswith("_"))
    return found


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "tensor.py"),
    ids=lambda p: p.name)
def test_no_private_tensor_names_outside_tensor_py(path):
    assert private_tensor_names(path.read_text(encoding="utf-8"),
                                path.name) == []


def test_the_lint_finds_each_form():
    source = ("from . import tensor as tt\n"
              "from .tensor import _active_tape, Tensor\n"
              "T._record(out, (x,), fn)\n"
              "tensor._unbroadcast(g, shape)\n"
              "tt._tapes\n"
              "T.node(data, (x,), fn)\n")
    assert sorted(private_tensor_names(source, "m.py")) == [
        "m.py:2: import _active_tape", "m.py:3: T._record",
        "m.py:4: tensor._unbroadcast", "m.py:5: tt._tapes"]


THREAD_MODULES = ("threading", "concurrent.futures")


def thread_imports(source: str, filename: str) -> list[str]:
    """Every import statement of ``source`` that reaches ``threading`` or
    ``concurrent.futures``, in either import form. ``tensor.beside`` is
    the one public way onto the helper thread, so only ``tensor.py``
    starts or waits on threads."""
    found = []
    for n in ast.walk(ast.parse(source, filename)):
        if isinstance(n, ast.Import):
            modules = [a.name for a in n.names]
        elif isinstance(n, ast.ImportFrom) and n.module and not n.level:
            modules = [n.module] + [f"{n.module}.{a.name}" for a in n.names]
        else:
            continue
        found.extend(f"{filename}:{n.lineno}: {m}" for m in modules
                     if m in THREAD_MODULES)
    return found


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "tensor.py"),
    ids=lambda p: p.name)
def test_no_thread_imports_outside_tensor_py(path):
    assert thread_imports(path.read_text(encoding="utf-8"), path.name) == []


def test_the_thread_lint_finds_each_form():
    source = ("import threading\n"
              "import concurrent.futures as cf\n"
              "from concurrent.futures import ThreadPoolExecutor\n"
              "from concurrent import futures\n"
              "from threading import local as tl\n"
              "import os, threading\n"
              "import concurrent, contextvars\n"
              "from .threading import x\n")
    assert thread_imports(source, "m.py") == [
        "m.py:1: threading", "m.py:2: concurrent.futures",
        "m.py:3: concurrent.futures", "m.py:4: concurrent.futures",
        "m.py:5: threading", "m.py:6: threading"]


PARTITION_NAMES = ("BESIDE_FROM", "TILE_ROWS")


def partition_names(source: str, filename: str) -> list[str]:
    """Every name, attribute or import of ``BESIDE_FROM`` or ``TILE_ROWS``
    in the code of ``source`` (not its strings or comments).
    ``tensor.row_parts`` chooses every row partition and ``tensor.beside``
    whether work runs on the helper, so no other module reads either."""
    found = []
    for n in ast.walk(ast.parse(source, filename)):
        if isinstance(n, ast.Name):
            name = n.id
        elif isinstance(n, ast.Attribute):
            name = n.attr
        elif isinstance(n, ast.alias):
            name = n.name
        else:
            continue
        if name in PARTITION_NAMES:
            found.append(f"{filename}:{n.lineno}: {name}")
    return found


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "tensor.py"),
    ids=lambda p: p.name)
def test_no_partition_names_outside_tensor_py(path):
    assert partition_names(path.read_text(encoding="utf-8"), path.name) == []


def test_the_partition_lint_finds_each_form():
    source = ('"""Splits from ``tensor.BESIDE_FROM`` entries."""\n'
              "if b * n < T.BESIDE_FROM:  # TILE_ROWS\n"
              "    pass\n"
              "from .tensor import TILE_ROWS as tile\n"
              "BESIDE_FROM = 2 ** 18\n"
              "half = tile * T.in_halves\n")
    assert sorted(partition_names(source, "m.py")) == [
        "m.py:2: BESIDE_FROM", "m.py:4: TILE_ROWS", "m.py:5: BESIDE_FROM"]


def imported_public_names(source: str, filename: str) -> set[str]:
    """The public names that the module-level imports of ``source`` bind."""
    names = set()
    for stmt in ast.parse(source, filename).body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            names.update(a.asname or a.name for a in stmt.names)
        elif isinstance(stmt, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in stmt.names)
    return {n for n in names if not n.startswith("_")}


def test_all_is_exactly_what_the_package_imports():
    imported = imported_public_names(
        (SRC / "__init__.py").read_text(encoding="utf-8"), "__init__.py")
    assert len(set(catkg.__all__)) == len(catkg.__all__)
    assert set(catkg.__all__) == imported


def test_every_exported_name_resolves():
    assert [n for n in catkg.__all__ if not hasattr(catkg, n)] == []


def test_the_export_lint_reads_each_import_form():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "import os.path\n"
              "from .kg import (KgModel, evaluate as ev, _private)\n"
              "if True:\n"
              "    from .kg import nested\n")
    assert imported_public_names(source, "m.py") == {
        "np", "os", "KgModel", "ev"}


def unseeded_generators(source: str, filename: str) -> list[str]:
    """Every call of ``default_rng`` with no argument (or a bare None) in
    ``source``, through any module path or an aliased import. Such a
    generator is seeded from the OS, so a run that draws from it cannot
    be repeated."""
    tree = ast.parse(source, filename)
    aliases = {"default_rng"}
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.ImportFrom):
            aliases.update(a.asname or a.name for a in stmt.names
                           if a.name == "default_rng")
    found = []
    for n in ast.walk(tree):
        if not isinstance(n, ast.Call):
            continue
        if isinstance(n.func, ast.Attribute):
            called = n.func.attr == "default_rng"
        else:
            called = isinstance(n.func, ast.Name) and n.func.id in aliases
        args = n.args + [k.value for k in n.keywords]
        if called and all(isinstance(a, ast.Constant) and a.value is None
                          for a in args):
            found.append(f"{filename}:{n.lineno}: {ast.unparse(n)}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unseeded_generator(path):
    assert unseeded_generators(path.read_text(encoding="utf-8"),
                               path.name) == []


def test_the_rng_lint_finds_each_form():
    source = ("import numpy as np\n"
              "from numpy.random import default_rng as new_rng\n"
              "np.random.default_rng()\n"
              "np.random.default_rng(seed)\n"
              "new_rng()\n"
              "new_rng(0)\n"
              "default_rng(seed=None)\n"
              "np.random.default_rng([seed, 7])\n")
    assert unseeded_generators(source, "m.py") == [
        "m.py:3: np.random.default_rng()", "m.py:5: new_rng()",
        "m.py:7: default_rng(seed=None)"]


ROOT = SRC.parent.parent
PYTHON_FLOOR = (3, 10)  # pyproject.toml's requires-python


def newer_syntax(source: str, filename: str) -> list[str]:
    """The syntax error, if any, of ``source`` read as the floor's
    grammar; ``ast`` flags the newer forms it knows, such as
    ``except*``."""
    try:
        ast.parse(source, filename, feature_version=PYTHON_FLOOR)
    except SyntaxError as e:
        return [f"{filename}:{e.lineno}: {e.msg}"]
    return []


def test_every_file_parses_at_the_python_floor():
    paths = sorted(p for d in ("src", "tests", "bench", "demos")
                   for p in (ROOT / d).rglob("*.py"))
    assert len(paths) > 30  # a wrong root would pass with no files
    found = [line for p in paths
             for line in newer_syntax(p.read_text(encoding="utf-8"),
                                      str(p.relative_to(ROOT)))]
    assert found == []


def test_the_floor_lint_finds_an_exception_group():
    # Python 3.10 itself reads ``except*`` as plain invalid syntax, so
    # only the finding's file is pinned, not its line or message.
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    [found] = newer_syntax(source, "m.py")
    assert found.startswith("m.py:")
    assert newer_syntax("try:\n    pass\nexcept ValueError:\n    pass\n",
                        "m.py") == []
