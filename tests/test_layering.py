"""Layering rules the source tree is held to.

No upward imports: ``repro.obs`` is the passive top tier.  Only
``repro.obs`` itself and ``repro.experiments`` may import it.  A lower
layer that does (as six did through ``obs.resettable`` before it moved
to ``repro.sim``) makes importing ``repro.ftl`` execute the whole
tracing/export tier.

The event heap belongs to ``repro.sim``: ``Simulator._heap`` and
``Simulator._seq`` are shared between the kernel and its resources and
with nobody else (``kernel.py`` says so).  A layer that wants to know
about event order asks through a public query (``Simulator.is_latest``).

One path per job: the hot path's scalar twins and the ``vectorized=`` /
``batch_reads`` switches that selected them are gone; what a suite still
compares against lives under ``tests/``, out of ``src/``'s reach.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MAY_IMPORT_OBS = ("repro.obs", "repro.experiments")


def _imported_modules(path: Path):
    """Absolute dotted names of everything ``path`` imports."""
    parts = path.relative_to(SRC).with_suffix("").parts
    package = parts[:-1]  # a package's __init__ resolves like its modules
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else ()
            module = ".".join(base + tuple(filter(None, [node.module])))
            for alias in node.names:
                yield f"{module}.{alias.name}"


def test_no_lower_layer_imports_obs():
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        name = ".".join(path.relative_to(SRC).with_suffix("").parts)
        if name.startswith(MAY_IMPORT_OBS):
            continue
        offenders += [
            f"{name} imports {target}"
            for target in _imported_modules(path)
            if target == "repro.obs" or target.startswith("repro.obs.")
        ]
    assert not offenders, offenders


def test_only_repro_sim_touches_the_event_heap():
    # Any ``<expr>._heap`` / ``<expr>._seq`` on something other than
    # ``self``: an object's own private queue (``Server`` and the FTL
    # have them) is its business, somebody else's is not.
    foreign = re.compile(r"(?<!\bself)\._(?:heap|seq)\b")
    offenders = [
        f"{path.relative_to(SRC)}:{number}: {line.strip()}"
        for path in sorted((SRC / "repro").rglob("*.py"))
        if "sim" not in path.relative_to(SRC / "repro").parts[:1]
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if foreign.search(line)
    ]
    assert not offenders, offenders


def test_no_switch_selects_a_twin_implementation():
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        if path.stem.endswith("_scalar"):
            offenders.append(f"{path.relative_to(SRC)}: module named for a scalar twin")
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                named = args.posonlyargs + args.args + args.kwonlyargs
                offenders += [
                    f"{path.relative_to(SRC)}:{node.lineno}: {node.name}({arg.arg}=)"
                    for arg in named
                    if arg.arg in ("vectorized", "batch_reads")
                ]
    assert not offenders, offenders


def test_src_never_imports_from_tests():
    offenders = [
        f"{path.relative_to(SRC)} imports {target}"
        for path in sorted(SRC.rglob("*.py"))
        for target in _imported_modules(path)
        if target == "tests" or target.startswith("tests.")
    ]
    assert not offenders, offenders
