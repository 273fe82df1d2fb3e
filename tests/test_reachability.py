"""Every module of ``src/repro`` is imported by code that runs.

A module stays in ``src/`` when some *other* module of ``src/repro``,
``benchmarks/perf`` or ``examples/`` imports it.  A package
``__init__`` and ``repro.api`` are re-export surfaces, not consumers:
being listed there keeps nothing alive, and tests keep nothing alive
either.  ``from package import name`` counts for the submodule that
defines ``name``, found through the package's ``__init__``.
``__main__`` is the one module that is run, not imported.
"""

import ast
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
