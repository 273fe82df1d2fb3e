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
A method is named through an attribute or a naming string only: a bare
identifier (a local, a parameter) that shares its name is a collision,
not a use.  A ``self.<name>`` or ``cls.<name>`` reference inside class
``C`` has a known receiver: it counts only for a method of ``C``'s MRO
or an override of one in a subclass of ``C``, never for a method of an
unrelated class that happens to share the name.
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
    "repro.sim.rng.RngRegistry.names": (
        "stream probe: the fault-program tests compare every derived stream's state"
    ),
    "repro.vsa.emulation.VsaEmulation.leader": (
        "the §II-C.2 emulation leader (minimum-id alive node), pinned by "
        "tests/vsa/test_emulation.py; no run elects one"
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


def mentioned_names(source: str) -> Tuple[Set[str], Set[str], Set[Tuple[str, str]]]:
    """``(names, bare, owned)`` of ``source`` outside docstrings: the
    attribute names and naming-string identifiers, the bare identifiers
    and imports, and the ``(class, name)`` of each ``self.<name>``/
    ``cls.<name>`` inside a class body.  Definitions are not uses."""
    tree = ast.parse(source)
    docstrings = _docstrings(tree)
    names: Set[str] = set()
    bare: Set[str] = set()
    owned: Set[Tuple[str, str]] = set()

    def visit(node: ast.AST, owner: Optional[str]) -> None:
        if isinstance(node, ast.ClassDef):
            owner = node.name
        if isinstance(node, ast.Name):
            bare.add(node.id)
        elif isinstance(node, ast.Attribute):
            receiver = node.value
            if (
                owner is not None
                and isinstance(receiver, ast.Name)
                and receiver.id in ("self", "cls")
            ):
                owned.add((owner, node.attr))
            else:
                names.add(node.attr)
        elif isinstance(node, ast.alias):
            bare.add(node.name.rpartition(".")[2])
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
            and _NAMING_STRING.match(node.value)
        ):
            names.update(_IDENTIFIER.findall(node.value))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return names, bare, owned


def class_bases(source: str) -> Dict[str, Set[str]]:
    """Class name -> the names of its direct bases, for every class."""
    bases: Dict[str, Set[str]] = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            found = bases.setdefault(node.name, set())
            for base in node.bases:
                if isinstance(base, ast.Name):
                    found.add(base.id)
                elif isinstance(base, ast.Attribute):
                    found.add(base.attr)
    return bases


def defined_names(source: str, module: str) -> Iterator[Tuple[str, Optional[str]]]:
    """``(qualified name, owning class or None)`` of every top-level
    function and class and every method (nested classes included) that
    the rule checks."""

    def walk(body, prefix: str, owner: Optional[str]) -> Iterator[Tuple[str, Optional[str]]]:
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            dunder = name.startswith("__") and name.endswith("__")
            if not dunder and not name.startswith(DISPATCH_PREFIXES):
                yield f"{prefix}.{name}", owner
            if isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{prefix}.{name}", name)

    yield from walk(ast.parse(source).body, module, None)


def unconsumed_names(root: Path) -> List[str]:
    """Checked names of ``root/src/repro`` that no consumer file names."""
    package = root / "src" / "repro"
    files = sorted(package.rglob("*.py"))
    consumers = [path for path in files if not _is_surface(path, package)]
    for directory in CONSUMER_DIRS:
        consumers += sorted((root / directory).glob("*.py"))
    used: Set[str] = set()
    bare: Set[str] = set()
    owned: Set[Tuple[str, str]] = set()
    bases: Dict[str, Set[str]] = {}
    for path in sorted(set(files) | set(consumers)):
        for name, found in class_bases(path.read_text()).items():
            bases.setdefault(name, set()).update(found)
    for path in consumers:
        names, identifiers, refs = mentioned_names(path.read_text())
        used |= names
        bare |= identifiers
        owned |= refs

    def lineage(name: str) -> Set[str]:
        """``name`` and every class it inherits from, by name."""
        seen, todo = set(), [name]
        while todo:
            cls = todo.pop()
            if cls not in seen:
                seen.add(cls)
                todo.extend(bases.get(cls, ()))
        return seen

    def reached(owner: str, method: str) -> bool:
        """A ``self.<method>`` in a class of ``owner``'s MRO, or in a
        class whose MRO holds ``owner`` (its override dispatches)."""
        family = lineage(owner)
        return any(
            attr == method and (cls in family or owner in lineage(cls))
            for cls, attr in owned
        )

    found = []
    for path in files:
        parts = path.relative_to(root / "src").with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        for qualified, owner in defined_names(path.read_text(), module):
            name = qualified.rpartition(".")[2]
            if owner is None and name in used | bare:
                continue
            if owner is not None and (name in used or reached(owner, name)):
                continue
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
    api/__init__ and docstrings, one only in a prose string, one only by
    an unrelated class's ``self.<name>`` and one only by a local of its
    name — while inherited and overriding methods reached through
    ``self`` stay consumed."""
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
        # ``self.reset`` in Gauge names Gauge's attribute, not Counter.reset,
        # and the local ``total`` is no use of Counter.total;
        # ``self.hook`` in Base dispatches to Sub's override, and
        # ``self.shared`` in Sub reaches Base's method through the MRO.
        "src/repro/lineage.py": (
            "class Base:\n"
            "    def run(self):\n"
            "        return self.hook()\n"
            "    def shared(self):\n"
            "        return 0\n"
            "class Sub(Base):\n"
            "    def hook(self):\n"
            "        return self.shared()\n"
            "class Gauge:\n"
            "    def __init__(self):\n"
            "        self.reset = 0\n"
            "    def read(self):\n"
            "        return self.reset\n"
            "class Counter:\n"
            "    def reset(self):\n"
            "        return 1\n"
            "    def total(self):\n"
            "        total = 2\n"
            "        return total\n"
        ),
        "examples/demo.py": (
            "from repro.core import Box\n"
            "from repro.lineage import Counter, Gauge, Sub\n"
            "Box().used()\nSub().run()\nGauge().read()\nCounter()\n"
        ),
    }
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert unconsumed_names(tmp_path) == [
        "repro.core.Box.unused",
        "repro.core.Box.prose",
        "repro.lineage.Counter.reset",
        "repro.lineage.Counter.total",
    ]
