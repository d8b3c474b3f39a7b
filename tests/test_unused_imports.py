"""No module under ``src/`` imports a name it never uses.

A module-level import that nothing reads is dead weight at import time
and a false lead for a reader (``FtlCpuCosts`` in ``ftl/ftl.py`` outlived
the code that used it).  The scan is the standard library's ``ast``:
a name bound by a module-level ``import`` / ``from ... import`` (also
inside a top-level ``if`` or ``try``, where ``TYPE_CHECKING`` imports
sit) must be read somewhere in the module — as a name, or inside a
quoted annotation — or be re-exported: listed in the module's
``__all__``, or imported from the module by another file of the repo.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Set

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Every tree whose files may import a name through a ``src`` module.
IMPORTERS = ("src", "tests", "tools", "perf", "benchmarks", "examples")


def _module_name(path: Path, root: Path) -> str:
    parts = path.relative_to(root).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _source_of(node: ast.ImportFrom, module: str, is_package: bool) -> str:
    """The absolute module a ``from ... import`` reads from."""
    if node.level == 0:
        return node.module or ""
    package = module.split(".") if is_package else module.split(".")[:-1]
    base = package[: len(package) - (node.level - 1)]
    return ".".join(base + ([node.module] if node.module else []))


def _bound_imports(body: Iterable[ast.stmt]) -> Dict[str, int]:
    """Names bound by the module-level imports of ``body``, with their line."""
    bound: Dict[str, int] = {}
    for stmt in body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                bound[(alias.asname or alias.name).split(".")[0]] = stmt.lineno
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            for alias in stmt.names:
                bound[alias.asname or alias.name] = stmt.lineno
        elif isinstance(stmt, (ast.If, ast.Try)):
            nested = stmt.body + stmt.orelse + getattr(stmt, "finalbody", [])
            for handler in getattr(stmt, "handlers", []):
                nested += handler.body
            bound.update(_bound_imports(nested))
    return bound


def _read_names(tree: ast.Module) -> Set[str]:
    """Every name the module reads, quoted annotations included."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [
        node.annotation for node in ast.walk(tree)
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None
    ] + [
        node.returns for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns
    ]
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return names


def _exported(tree: ast.Module) -> Set[str]:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in stmt.targets
        ):
            return {elt.value for elt in stmt.value.elts if isinstance(elt, ast.Constant)}
    return set()


def _imported_from(sources: Dict[Path, str]) -> Dict[str, Set[str]]:
    """Per absolute module, the names other files import from it."""
    taken: Dict[str, Set[str]] = {}
    for path, text in sources.items():
        root = SRC if path.is_relative_to(SRC) else ROOT
        module = _module_name(path, root)
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom):
                source = _source_of(node, module, path.name == "__init__.py")
                taken.setdefault(source, set()).update(alias.name for alias in node.names)
    return taken


def unused_imports(sources: Dict[Path, str]) -> List[str]:
    """``path:line: name`` for each unused module-level import of a file
    under ``src/`` in ``sources`` (file -> text; every file is a
    possible importer)."""
    taken = _imported_from(sources)
    found = []
    for path, text in sorted(sources.items()):
        if not path.is_relative_to(SRC):
            continue
        tree = ast.parse(text)
        module = _module_name(path, SRC)
        keep = _read_names(tree) | _exported(tree) | taken.get(module, set())
        found += [
            f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in sorted(_bound_imports(tree.body).items(), key=lambda kv: kv[1])
            if name not in keep
        ]
    return found


def repo_sources() -> Dict[Path, str]:
    return {
        path: path.read_text()
        for tree in IMPORTERS
        for path in sorted((ROOT / tree).rglob("*.py"))
    }


def test_src_imports_no_name_it_never_uses():
    found = unused_imports(repo_sources())
    assert not found, found


def test_the_scan_sees_a_planted_unused_import():
    """Planted offences are found; a name read, quoted in an annotation,
    listed in ``__all__`` or imported by another file is not one."""
    module = SRC / "repro" / "planted.py"
    user = ROOT / "tests" / "uses_planted.py"
    text = (
        "from __future__ import annotations\n"
        "import json\n"
        "from typing import TYPE_CHECKING, Any, Optional\n"
        "from .core.config import SlsConfig\n"
        "from .flash.array import FlashArray, PageRead\n"
        "if TYPE_CHECKING:\n"
        "    from .ftl.ftl import GreedyFtl\n"
        "__all__ = ['PageRead']\n"
        "def f(ftl: 'GreedyFtl') -> Any:\n"
        "    return SlsConfig\n"
    )
    sources = {module: text, user: "from repro.planted import FlashArray\n"}
    assert unused_imports(sources) == [
        "src/repro/planted.py:2: json",
        "src/repro/planted.py:3: Optional",
    ]
