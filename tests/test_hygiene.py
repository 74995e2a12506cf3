"""Source hygiene: no module imports a name it never uses or defines a
top-level name twice, every top-level definition in `src/`, and every public
method of a public `src/` class, has a reader there unless it is listed
library API, and the benchmark's child process imports only modules that
exist."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = [path for part in ("src/kfree", "tests", "scripts") for path in sorted((ROOT / part).glob("*.py"))]
SRC_MODULES = sorted((ROOT / "src" / "kfree").glob("*.py"))

# Public API that nothing in src/ reads; each entry says why it stays.
LIBRARY_API = {
    "channel.haar_word_average_exact": "exact finite-D Haar word average, the reference for Monte Carlo probes",
    "channel.word_functional_from_matrices": "builds the positional functional the channel functions take",
    "eth.ThermalState.effective_dim": "1 / sum of squared Boltzmann weights; the benchmark's checks bound cumulants by it",
    "eth.averaged_free_cumulant": "time-averaged free cumulant; the benchmark's library steps call it",
    "eth.distinct_index_cumulant": "kappa_2k as a restricted spectral sum; the benchmark's library steps call it",
    "matio.save_operator": "writes the operator files that the CLI reads",
    "partitions.moebius_nc": "mu(sigma, pi) with its input checks; the CLI's enumerated pairs skip them",
    "permutations.identity": "the unit of S_k, beside full_cycle",
    "weingarten.WeingartenTable.wg_of_class": "Wg on one cycle type, the class value the k = 3 golden table is stated in",
}


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that the module never reads.

    `__future__` imports and names listed in `__all__` (re-exports) count as
    used.  A read is any `Name` node, which also covers the base of an
    attribute chain, decorators and annotations.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1]) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_detector():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from typing import Sequence\n"
        "from .x import a, b as c\n"
        "__all__ = ['a']\n"
        "def f(v: Sequence) -> None:\n"
        "    return np.zeros(1)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 4: c"]


def repeated_definitions(source: str) -> list[str]:
    """Top-level names that a module binds more than once by a function,
    class or plain assignment: the later binding shadows the earlier, so a
    shadowed test never runs."""
    lines: dict[str, list[int]] = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            lines.setdefault(name, []).append(node.lineno)
    return [f"{name}: lines {', '.join(map(str, at))}" for name, at in lines.items() if len(at) > 1]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_top_level_name_defined_twice(path):
    assert repeated_definitions(path.read_text()) == []


def test_repeated_definition_detector():
    source = (
        "LIMIT = 3\n"
        "def f():\n"
        "    def g():\n"
        "        pass\n"
        "    def g():\n"
        "        pass\n"
        "class f:\n"
        "    pass\n"
        "LIMIT: int = 4\n"
    )
    assert repeated_definitions(source) == ["LIMIT: lines 1, 9", "f: lines 2, 7"]


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """`module.name` for each top-level definition that nothing else reads.

    A definition is a top-level function, class or assigned name (dunders
    excepted).  A read is a `Name` node, or the attribute of an `Attribute`
    node, anywhere in `sources` outside the definition itself: recursion and
    a class's own methods do not count, a CLI call or `module.name` does.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads: dict[str, list[tuple[str, ast.AST]]] = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                reads.setdefault(node.id, []).append((module, node))
            elif isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, []).append((module, node))
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name) and not t.id.startswith("__")]
            else:
                continue
            inside = {id(n) for n in ast.walk(node)}
            for name in names:
                if all(m == module and id(n) in inside for m, n in reads.get(name, [])):
                    out.append(f"{module}.{name}")
    return sorted(out)


def test_every_src_definition_has_a_src_caller():
    unreferenced = unreferenced_definitions({path.stem: path.read_text() for path in SRC_MODULES})
    assert [name for name in unreferenced if name not in LIBRARY_API] == []


def test_library_api_entries_exist_and_lack_a_src_caller():
    # an entry that gained a caller, or lost its definition, leaves the list
    sources = {path.stem: path.read_text() for path in SRC_MODULES}
    unreferenced = unreferenced_definitions(sources) + unreferenced_methods(sources)
    assert sorted(set(LIBRARY_API) - set(unreferenced)) == []
    assert all(reason.strip() for reason in LIBRARY_API.values())


def test_unreferenced_definition_detector():
    sources = {
        "a": (
            "LIMIT = 3\n"
            "__all__ = []\n"
            "def used():\n"
            "    return LIMIT\n"
            "def dead(n):\n"
            "    return dead(n - 1)\n"
            "class Box:\n"
            "    def method(self):\n"
            "        return Box\n"
        ),
        "b": "from . import a\nfrom .a import used\nused()\n",
    }
    assert unreferenced_definitions(sources) == ["a.Box", "a.dead"]
    sources["b"] += "a.Box().method()\n"
    assert unreferenced_definitions(sources) == ["a.dead"]


def unreferenced_methods(sources: dict[str, str]) -> list[str]:
    """`module.Class.name` for each public method or property of a public
    top-level class that nothing reads.  A read is the attribute of an
    `Attribute` node anywhere in `sources` outside the method itself; a bare
    name does not count, since a local variable may share it."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, []).append(node)
    out = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
                    inside = {id(n) for n in ast.walk(node)}
                    if all(id(n) in inside for n in reads.get(node.name, [])):
                        out.append(f"{module}.{cls.name}.{node.name}")
    return sorted(out)


def test_every_public_src_method_has_a_src_reader():
    unread = unreferenced_methods({path.stem: path.read_text() for path in SRC_MODULES})
    assert [name for name in unread if name not in LIBRARY_API] == []


def test_unreferenced_method_detector():
    sources = {
        "a": (
            "class Box:\n"
            "    def used(self):\n"
            "        return self.size\n"
            "    @property\n"
            "    def size(self):\n"
            "        return 1\n"
            "    def dead(self, n):\n"
            "        return self.dead(n - 1)\n"
            "    def _private(self):\n"
            "        pass\n"
            "class _Hidden:\n"
            "    def dead(self):\n"
            "        pass\n"
            "def orphan():\n"
            "    pass\n"
        ),
        "b": "from .a import Box\nBox().used()\n",
    }
    assert unreferenced_methods(sources) == ["a.Box.dead"]
    sources["b"] = "from .a import Box\nused = Box().dead\n"
    assert unreferenced_methods(sources) == ["a.Box.used"]


def test_benchmark_child_imports_resolve():
    tree = ast.parse((ROOT / "perfbench" / "child.py").read_text())
    names = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
    kfree_modules = [name for name in names if name.split(".")[0] == "kfree"]
    assert kfree_modules
    assert [name for name in kfree_modules if importlib.util.find_spec(name) is None] == []
