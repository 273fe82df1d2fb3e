"""Every module of ``src/repro`` is imported, and every name in it is
used, by code that runs.

A module stays in ``src/`` when some *other* module of ``src/repro``,
``benchmarks/perf`` or ``examples/`` imports it.  A package
``__init__`` and ``repro.api`` are re-export surfaces, not consumers:
being listed there keeps nothing alive, and tests keep nothing alive
either.  ``from package import name`` counts for the submodule that
defines ``name``, found through the package's ``__init__``.
``__main__`` is the one module that is run, not imported.

The same holds one level down: every top-level function and class, and
every method, defined in ``src/repro`` must be named in a consumer file
(the same files, plus ``src/repro`` modules naming their own helpers),
as an identifier or as a string that names code — a
``"module:function"`` runner table or a tracer's binding row counts,
prose and docstrings do not.
Its own ``def`` is not a mention.  Dunder methods are exempt, and so are
the TIOA handlers that dispatch builds from a prefix and an action name.
"""

import ast
import re
from pathlib import Path

import pytest
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Directories outside ``src/`` whose imports also keep a module alive.
CONSUMER_DIRS = ("benchmarks/perf", "examples")
#: Re-export surfaces: their imports keep nothing alive.
SURFACES = ("__init__", "api")
#: File stems nothing is expected to import.
UNCHECKED = ("__init__", "__main__")
#: Method prefixes a TIOA automaton dispatches through by string
#: (``getattr(self, f"input_{action.name}")`` and its kin).
DISPATCH_PREFIXES = ("input_", "output_", "internal_", "_recv_")
#: Qualified names kept without a consumer, each with its reason.
ALLOWED = {
    "repro.mobility.evader.Evader.observer_count": (
        "leak probe: tests assert that a run unsubscribes every evader observer"
    ),
    "repro.obs.collector.ObsCollector.subscriber_count": (
        "leak probe: tests assert that a closed obs scope leaves no subscriber"
    ),
    "repro.analysis.bounds.find_time_bound": (
        "Theorem 5.2 time bound: ROADMAP item 11's online theorem-5.2 check"
    ),
    "repro.analysis.bounds.grid_move_work_bound": (
        "Theorem 4.9 grid corollary: ROADMAP item 11's online theorem-4.9-work check"
    ),
    "repro.analysis.bounds.grid_find_work_bound": (
        "Theorem 5.2 grid corollary: ROADMAP item 11's online theorem-5.2 check"
    ),
}
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
#: A string that names code: one identifier, or a dotted or
#: ``module:attr`` path of them — not prose.
_NAMING_STRING = re.compile(r"[A-Za-z_][\w.:]*\Z")


def _modules() -> Dict[str, Path]:
    """Dotted name -> file, for every module and package of ``src/repro``."""
    found = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        found[".".join(parts)] = path
    return found


MODULES = _modules()


def _is_package(name: str) -> bool:
    return name in MODULES and MODULES[name].name == "__init__.py"


def _imports(path: Path, package: str) -> Iterator[Tuple[str, Optional[str]]]:
    """``(module, name or None)`` for every import statement in ``path``,
    lazy (function-level) ones included, relative ones made absolute
    against ``package``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[: len(anchor) - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            for alias in node.names:
                yield base, alias.name


def _defining_module(module: str, name: Optional[str], seen=()) -> Optional[str]:
    """The ``src/repro`` module an import of ``name`` from ``module`` reaches."""
    if module not in MODULES:
        return None
    if name is None or not _is_package(module):
        return module
    if f"{module}.{name}" in MODULES:
        target = f"{module}.{name}"
        return None if _is_package(target) else target
    for base, imported in _imports(MODULES[module], module):
        if imported == name and (base, name) not in seen:
            return _defining_module(base, name, seen + ((base, name),))
    return None


def _consumers() -> Iterator[Tuple[str, Path, str]]:
    """``(label, file, package the file's relative imports resolve in)``."""
    for name, path in MODULES.items():
        if path.stem not in SURFACES:
            yield name, path, name.rpartition(".")[0]
    for directory in CONSUMER_DIRS:
        for path in sorted((ROOT / directory).glob("*.py")):
            yield f"{directory}/{path.name}", path, ""


@pytest.fixture(scope="module")
def kept() -> Dict[str, Set[str]]:
    """module -> labels of the consumers that import it (itself excluded)."""
    users: Dict[str, Set[str]] = {name: set() for name in MODULES}
    for label, path, package in _consumers():
        for module, name in _imports(path, package):
            target = _defining_module(module, name)
            if target is not None and target != label:
                users[target].add(label)
    return users


def kept_from_outside(kept: Dict[str, Set[str]]) -> List[str]:
    """One line per module that lives only through a bench or an example."""
    return [
        f"{name}: kept by {', '.join(sorted(users))}"
        for name, users in sorted(kept.items())
        if users and not any(user in MODULES for user in users)
    ]


def test_every_module_has_an_importer(kept):
    checked = {
        name for name, path in MODULES.items() if path.stem not in UNCHECKED
    }
    unreachable = sorted(
        name for name in checked if not kept[name]
    )
    assert not unreachable, (
        f"no module of src/repro, {' or '.join(CONSUMER_DIRS)} imports "
        f"{unreachable}: delete them, or import them where a run reaches.\n"
        "Modules with no importer inside src/:\n  "
        + "\n  ".join(kept_from_outside(kept))
    )


# ----------------------------------------------------------------------
# Names
# ----------------------------------------------------------------------
def _docstrings(tree: ast.AST) -> Set[int]:
    """``id`` of every docstring constant in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                found.add(id(first.value))
    return found


def mentioned_names(source: str) -> Set[str]:
    """Every identifier ``source`` uses, imports or spells as a naming
    string outside docstrings.  Definitions are not uses."""
    tree = ast.parse(source)
    docstrings = _docstrings(tree)
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
            and _NAMING_STRING.match(node.value)
        ):
            names.update(_IDENTIFIER.findall(node.value))
    return names


def defined_names(source: str, module: str) -> Iterator[str]:
    """Qualified name of every top-level function and class and every
    method (nested classes included) that the rule checks."""

    def walk(body, prefix: str) -> Iterator[str]:
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            dunder = name.startswith("__") and name.endswith("__")
            if not dunder and not name.startswith(DISPATCH_PREFIXES):
                yield f"{prefix}.{name}"
            if isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{prefix}.{name}")

    yield from walk(ast.parse(source).body, module)


def unconsumed_names(root: Path) -> List[str]:
    """Checked names of ``root/src/repro`` that no consumer file names."""
    package = root / "src" / "repro"
    files = sorted(package.rglob("*.py"))
    consumers = [path for path in files if not _is_surface(path, package)]
    for directory in CONSUMER_DIRS:
        consumers += sorted((root / directory).glob("*.py"))
    used: Set[str] = set()
    for path in consumers:
        used |= mentioned_names(path.read_text())
    found = []
    for path in files:
        parts = path.relative_to(root / "src").with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        for qualified in defined_names(path.read_text(), module):
            if qualified.rpartition(".")[2] not in used:
                found.append(qualified)
    return found


def _is_surface(path: Path, package: Path) -> bool:
    """A package ``__init__`` or ``repro.api``: re-exports, not uses."""
    return path.name == "__init__.py" or path == package / "api.py"


def test_every_name_has_a_consumer():
    found = unconsumed_names(ROOT)
    unexplained = [name for name in found if name not in ALLOWED]
    assert not unexplained, (
        "nothing in src/repro (bar __init__/api), "
        f"{' or '.join(CONSUMER_DIRS)} names {unexplained}: delete them, "
        "move a test oracle into tests/, or allow one with its reason"
    )
    stale = sorted(set(ALLOWED) - set(found))
    assert not stale, f"allowed names that now have a consumer or are gone: {stale}"
    assert all(reason.strip() for reason in ALLOWED.values())


def test_the_name_rule_reports_an_unused_method(tmp_path):
    """Negative control: a scratch tree where one method is used only by
    api/__init__ and docstrings, and one only in a prose string."""
    files = {
        "src/repro/__init__.py": "from .core import Box, helper\n",
        "src/repro/api.py": "from .core import Box\nBox().unused()\n",
        "src/repro/core.py": (
            '"""Mentions unused() only in docstrings."""\n'
            "class Box:\n"
            '    """Box.unused is documented, not used."""\n'
            "    def used(self):\n"
            "        return helper()\n"
            "    def unused(self):\n"
            '        """unused"""\n'
            "    def input_poke(self):\n"
            "        pass\n"
            "    def prose(self):\n"
            "        return 'prose, as a caption says'\n"
            "    def __repr__(self):\n"
            "        return 'Box'\n"
            "def helper():\n"
            "    return 1\n"
            "def run_job():\n"
            "    return 2\n"
        ),
        "src/repro/parallel.py": 'RUNNERS = {"job": "repro.core:run_job"}\n',
        "examples/demo.py": "from repro.core import Box\nBox().used()\n",
    }
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert unconsumed_names(tmp_path) == ["repro.core.Box.unused", "repro.core.Box.prose"]
