"""The rules the source tree is held to, as one table: a new rule is one row.

A row is a rule's name, the trees it reads, a finder mapping ``({path:
text}, allowlist)`` to offender strings, the allowlist, why the rule holds,
and planted cases.  ``test_rule_holds``: every finder finds nothing on the
tree, and finds something without any one allowlist entry.
``test_planted_case``: one edit ``(file, old, new, expected)`` to a copy of
the sources (``old`` occurs once; ``""`` plants a file) and the finder finds
exactly ``expected``, ``{L}`` / ``{L+n}`` being the line ``old`` starts on
(plus ``n``); a "not an offence" case expects ``[]``.  Files under ``src/``
are keyed from ``src/``, other trees from the repo root.  Every finder reads
a file through :func:`_nodes`, one parse and walk memoized on the text.
"""

from __future__ import annotations

import ast
import functools
import gc
import re
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import pytest

ROOT = Path(__file__).resolve().parent.parent
# Every tree whose files may import a name through a ``src`` module.
IMPORTERS = ("src", "tests", "tools", "perf", "benchmarks", "examples")
SRC, SRC_AND_BENCHMARKS = ("src",), ("src", "benchmarks")
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_LOOPS = (ast.For, ast.AsyncFor, ast.While, *_COMPREHENSIONS)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
RESOURCE_COUNTERS = ("jobs_started", "jobs_completed", "busy_time", "bytes_transferred")
LIFECYCLE = ("drain", "fail", "restore")
SCENARIO = "repro/workload/scenario.py"
DRIVES = ("run_workload", "UpdateStream", "make_engine", "run_until_settled")
TRAFFIC_TIERS = ("repro.workload", "repro.cluster", "repro.experiments")
FLEET_STATS = "repro/cluster/stats.py"
SECOND_RANK_RULE = re.compile(
    r"\b(?:np|numpy)\.(?:nan)?(?:percentile|quantile)\b"
    r"|\bstatistics\.quantiles\b"
    r"|\bfrom\s+(?:numpy|statistics)\s+import\b.*\b(?:percentile|quantiles?)\b"
)
PER_BAG_FREE = ("core", "embedding", "serving", "models")
BAGS = "repro/core/bags.py"
# The public spellings of ``Bags.of``: they hold no loop at all.
LOOP_FREE = {"repro/embedding/backends/base.py": "flatten_bags", "repro/core/config.py": "build_pairs"}
_WRAPPERS = ("enumerate", "zip", "reversed", "list", "tuple", "iter", "range", "len")
_BAG, _BAGS = re.compile(r"(?:\w*_)?bag"), re.compile(r"(?:\w*_)?bags")
# Per module, the functions on the per-page / per-command path; ``Class.*``
# holds every method of a record class to the rule.
CLOSURE_FREE = {
    "repro/flash/array.py": "FlashArray.read FlashArray.admit FlashArray.program FlashArray.erase "
    "FlashArray._erased PageRead.* _CallbackRead.* _PageProgram.*",
    "repro/ftl/ftl.py": "GreedyFtl.read GreedyFtl.read_page GreedyFtl.ndp_read GreedyFtl.write_page "
    "GreedyFtl._do_write GreedyFtl.program_page GreedyFtl._program_done "
    "HostRead.* _PageCallback.* _PageWrite.*",
    "repro/ftl/mover.py": "PageMove.*",
    "repro/ftl/wear.py": "WearLeveler._move_page",
    "repro/nvme/commands.py": "BlockRead.*",
    "repro/nvme/controller.py": "NvmeController._dispatch_ndp NvmeController._pages NvmeController.complete "
    "NvmeController.post "
    "NvmeController.dma_to_host NvmeController.dma_to_device NvmeController._do_write_images _Fetch.* _Write.*",
    "repro/driver/unvme.py": "UnvmeDriver._issue UnvmeDriver._deliver",
    "repro/core/engine.py": "NdpSlsEngine._admit NdpSlsEngine.handle_result_read "
    "NdpSlsEngine._accumulate_cache_hits NdpSlsEngine._pump _PageJob.* _Command.*",
    "repro/embedding/stage.py": "EmbeddingStage.start _Batch.* _Piece.*",
    "repro/driver/ndp.py": "NdpSlsSession.sls _SlsOp.*",
    "repro/embedding/backends/ndp.py": "NdpSlsBackend._start _NdpOp.*",
    "repro/embedding/backends/ssd.py": "SsdSlsBackend._start SsdSlsBackend._finish _SsdOp.*",
    "repro/embedding/backends/dram.py": "DramSlsBackend._start",
    "repro/embedding/backends/base.py": "SlsBackend._deliver",
}
# A file outside ``src/`` takes a name from a ``src`` module only by a
# ``from repro... import``, so of such a file only those are parsed.
_FROM_SRC = re.compile(r"^[ \t]*from[ \t]+repro\b[\w.]*[ \t]+import[ \t]*(?:\([^)]*\)|.*)", re.M)


@functools.cache
def _tree(scope: tuple) -> dict:
    """``{path: text}`` of every module under the trees of ``scope``."""
    return {
        str(path.relative_to(ROOT / name if name == "src" else ROOT)): path.read_text()
        for name in scope
        for path in sorted((ROOT / name).rglob("*.py"))
    }


@functools.cache
def _nodes(source: str) -> dict:
    """Every node of ``source`` by type, as ``(node, scope)`` in walk order;
    ``scope`` is the enclosing function or class, dotted ("" at module level)."""
    found = defaultdict(list)

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.expr_context):
                found[type(child)].append((child, scope))
                visit(child, f"{scope}.{child.name}".lstrip(".") if isinstance(child, _SCOPES) else scope)

    # A syntax tree holds no cycle, so a collector pass while one is built
    # finds nothing: it would only walk every node kept so far.
    collecting = gc.isenabled()
    gc.disable()
    try:
        tree = ast.parse(source)
        found[ast.Module].append((tree, ""))
        visit(tree, "")
    finally:
        if collecting:
            gc.enable()
    return found


def _of(source: str, *kinds) -> list:
    """``(node, scope)`` of every node of ``kinds``, in source order."""
    found = [pair for kind in kinds for pair in _nodes(source)[kind]]
    return sorted(found, key=lambda pair: (pair[0].lineno, pair[0].col_offset))


def _named(node: ast.AST) -> str:
    return getattr(node, "id", None) or getattr(node, "attr", None) or ""


def _within(name: str, *scopes: str) -> bool:
    return any(name == scope or name.startswith(scope + ".") for scope in scopes)


def _dotted(path: str) -> str:
    return ".".join(Path(path).with_suffix("").parts)


@functools.cache
def _imports(path: str, source: str) -> tuple:
    """``(line, module, name)`` of every import in ``source`` at any depth,
    relative ones made absolute; ``name`` is None for ``import module``."""
    package = Path(path).parts[:-1]  # a package's __init__ resolves like its modules
    found = []
    for node, _ in _of(source, ast.Import, ast.ImportFrom):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name, None) for alias in node.names]
            continue
        base = package[: len(package) - node.level + 1] if node.level else ()
        module = ".".join(base + tuple(filter(None, [node.module])))
        found += [(node.lineno, module, alias.name) for alias in node.names]
    return tuple(found)


def _imports_of(packages, exempt=(), form: str = "{path} imports {target}") -> Callable:
    """A finder: every import of ``packages`` (a function-level one too) by
    a module outside ``exempt``."""
    return lambda sources, allowed: [
        form.format(path=path, module=_dotted(path), line=line, target=target)
        for path, source in sources.items()
        if not _within(_dotted(path), *exempt)
        for line, module, name in _imports(path, source)
        for target in [f"{module}.{name}" if name else module]
        if _within(target, *packages)
    ]


def _calls(sources, method: str, receiver=lambda node, scope: True) -> list:
    """``(path, line, scope)`` of every ``<receiver>.method(...)`` call."""
    return [
        (path, call.lineno, scope or "<module>")
        for path, source in sources.items()
        for call, scope in _nodes(source)[ast.Call]
        if isinstance(call.func, ast.Attribute) and call.func.attr == method
        and receiver(call.func.value, scope)
    ]


@functools.cache
def _matches(pattern: re.Pattern, source: str) -> tuple:
    if not pattern.search(source):
        return ()
    lines = enumerate(source.splitlines(), 1)
    return tuple(f"{number}: {line.strip()}" for number, line in lines if pattern.search(line))


def _lines(pattern: re.Pattern, skip=lambda path, allowed: False) -> Callable:
    """A finder: ``path:line: text`` of every line ``pattern`` matches."""
    return lambda sources, allowed: [
        f"{path}:{found}" for path, source in sources.items() if not skip(path, allowed)
        for found in _matches(pattern, source)
    ]


def _free_of(sources, table: dict, kinds) -> list:
    """Every node of ``kinds`` inside a function ``table`` names per module
    (``Class.*``: every method), and each named function that is missing."""
    offenders = []
    for module, names in table.items():
        index = _nodes(sources[module])
        classes = {node.name for node, scope in index[ast.ClassDef] if not scope}
        defs = [
            f"{scope}.{node.name}".lstrip(".")
            for node, scope in index[ast.FunctionDef] if scope in classes | {""}
        ]
        inner = _of(sources[module], *kinds)
        for name in names.split():
            held = [each for each in defs if each.startswith(name[:-1])] if name.endswith(".*") else [name]
            offenders += [] if held else [f"{module}: {name}: no such class"]
            for each in held:
                offenders += [] if each in defs else [f"{module}: {each}: no such function"]
                offenders += [
                    f"{module}: {each}:{node.lineno}: {type(node).__name__}" for node, scope in inner
                    if _within(scope, each)
                ]
    return offenders


def _counter_writes(sources, allowed) -> list:
    """Every write (or ``setattr``) of a resource counter that the allowlist does not allow."""
    offenders = []
    for path, source in sources.items():
        index = _nodes(source)
        writes = [
            (node.lineno, node.attr) for node, _ in index[ast.Attribute] if isinstance(node.ctx, ast.Store)
        ] + [
            (call.lineno, arg.value) for call, _ in index[ast.Call] if _named(call.func) == "setattr"
            for arg in call.args[1:2] if isinstance(arg, ast.Constant)
        ]
        offenders += [
            f"{path}:{line}: {name}" for line, name in sorted(writes)
            if name in RESOURCE_COUNTERS and not any(path.startswith(p) and name == c for p, c in allowed)
        ]
    return offenders


def _twin_switches(sources, allowed) -> list:
    twins = [f"{path}: module named for a scalar twin" for path in sources if path.endswith("_scalar.py")]
    return twins + [
        f"{path}:{node.lineno}: {node.name}({arg.arg}=)"
        for path, source in sources.items()
        for node, _ in _of(source, ast.FunctionDef, ast.AsyncFunctionDef)
        for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        if arg.arg in ("vectorized", "batch_reads")
    ]


def _stage_forks(sources, allowed) -> list:
    """A second ``*EmbeddingStage`` class, and code that asks which kind of
    stage (or worker) it was handed."""
    offenders = []
    for path, source in sources.items():
        classes = [node.name for node, _ in _nodes(source)[ast.ClassDef]]
        offenders += [f"{path}: {name}" for name in classes if name.endswith("EmbeddingStage")]
        for node, _ in _of(source, ast.Call, ast.Compare):
            against = node.args[1:] if isinstance(node, ast.Call) and _named(node.func) == "isinstance" else []
            kinds = [kind for arg in against for kind in getattr(arg, "elts", [arg])]
            sides = [node.left, *node.comparators] if isinstance(node, ast.Compare) else []
            if any(_named(kind).endswith("EmbeddingStage") for kind in kinds):
                offenders.append(f"{path}:{node.lineno}: isinstance against a stage")
            elif "device_index" in map(_named, sides) and any(getattr(s, "value", None) == 0 for s in sides):
                offenders.append(f"{path}:{node.lineno}: device_index compared with 0")
    return [offender for offender in offenders if offender not in allowed]


def _second_paths(sources, allowed) -> list:
    """Stage starts and dense timings outside their one caller, and any
    ``pipeline`` module under ``repro/embedding``."""
    def is_stage(receiver: ast.AST, scope: str) -> bool:
        return _named(receiver).lower().endswith("stage") or (
            _named(receiver) == "self" and scope.startswith("EmbeddingStage.")
        )

    return [
        f"{path}:{line}: {scope}"
        for method, receiver in (("start", is_stage), ("dense_time", lambda node, scope: True))
        for path, line, scope in _calls(sources, method, receiver)
        if (method, path, scope) not in allowed
    ] + [
        f"{path}: a pipeline module"
        for path in sources if path.startswith("repro/embedding/") and Path(path).stem == "pipeline"
    ]


def _iterated(node: ast.AST):
    """The innermost expressions an iterable walks, through ``zip`` / ``range(len(...))`` and the like."""
    if isinstance(node, ast.Call) and _named(node.func) in _WRAPPERS:
        for arg in node.args:
            yield from _iterated(arg)
    elif isinstance(node, ast.Subscript):
        yield from _iterated(node.value)
    else:
        yield node


def _per_bag_walks(sources, allowed) -> list:
    """Every loop or comprehension that walks something named ``bags`` /
    ``*_bags`` or binds a ``bag`` / ``*_bag``, and any loop in ``LOOP_FREE``."""
    return [
        f"{path}:{node.lineno}: {scope or '<module>'}"
        for path, source in sources.items() if path.split("/")[1] in PER_BAG_FREE
        for node, scope in _of(source, ast.For, ast.AsyncFor, *_COMPREHENSIONS)
        if (path, scope) not in allowed and any(
            any(_BAG.fullmatch(_named(name)) for name in ast.walk(walk.target))
            or any(_BAGS.fullmatch(_named(expr)) for expr in _iterated(walk.iter))
            for walk in getattr(node, "generators", [node])
        )
    ] + _free_of(sources, LOOP_FREE, _LOOPS)


def _second_ways(sources, allowed) -> list:
    """A second rank rule, the fleet's stats ranking or summarizing a population
    itself (docstrings do not count), and a ``repro.obs`` instrument class."""
    fleet = [
        f"{FLEET_STATS}:{node.lineno}: {name}"
        for node, _ in _of(sources[FLEET_STATS], ast.alias, ast.Name, ast.Attribute)
        for name in [node.name.rpartition(".")[2] if isinstance(node, ast.alias) else _named(node)]
        if name in ("rank_quantile", "summarize_latencies")
    ]
    instruments = [
        f"{path}:{node.lineno}: {node.name}"
        for path, source in sources.items() if path.startswith("repro/obs/")
        for node, _ in _nodes(source)[ast.ClassDef]
        if not node.name.startswith("_")
        and {"inc", "set", "observe"} & {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
    ]
    return _lines(SECOND_RANK_RULE)(sources, allowed) + fleet + instruments


def _holds_hosts(receiver: ast.AST, scope: str = "") -> bool:
    """A cluster, a node (``nodes[i]`` too), or ``<anything>.node(...)``."""
    while isinstance(receiver, ast.Subscript):
        receiver = receiver.value
    if isinstance(receiver, ast.Call):
        return _named(receiver.func) == "node"
    return _named(receiver).lower().endswith(("cluster", "node", "nodes"))


def _second_lifecycle_schedules(sources, allowed) -> list:
    """Lifecycle calls outside their allowed callers, and any ``getattr(<cluster or node>, ...)(...)``."""
    calls = sorted(found for action in LIFECYCLE for found in _calls(sources, action, _holds_hosts))
    return [f"{path}:{line}: {scope}" for path, line, scope in calls if (path, scope) not in allowed] + [
        f"{path}:{call.lineno}: getattr"
        for path, source in sources.items()
        for call, _ in _nodes(source)[ast.Call]
        if isinstance(call.func, ast.Call) and _named(call.func.func) == "getattr"
        and call.func.args and _holds_hosts(call.func.args[0])
    ]


def _second_drivers(sources, allowed) -> list:
    """Traffic or an update stream started outside the one driver."""
    return sorted(
        f"{path}:{call.lineno}: {scope or '<module>'} calls {name}"
        for path, source in sources.items()
        for call, scope in _nodes(source)[ast.Call]
        for name in [_named(call.func)]
        if name in DRIVES and (name, path, scope or "<module>") not in allowed
    )


@functools.cache
def _kept(source: str) -> frozenset:
    """Every name ``source`` reads, inside a quoted annotation too, or lists
    in its ``__all__``."""
    index = _nodes(source)
    kept = {node.id for node, _ in index[ast.Name]}
    annotations = [node.annotation for kind in (ast.arg, ast.AnnAssign) for node, _ in index[kind]]
    annotations += [node.returns for kind in _FUNCTIONS[:2] for node, _ in index[kind]]
    for node in (inner for annotation in filter(None, annotations) for inner in ast.walk(annotation)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            kept |= {name.id for name in ast.walk(quoted) if isinstance(name, ast.Name)}
    for node, scope in index[ast.Assign]:
        if not scope and any(_named(target) == "__all__" for target in node.targets):
            kept |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return frozenset(kept)


@functools.cache
def _from_src(source: str) -> str:
    return "\n".join(match.group().strip() for match in _FROM_SRC.finditer(source))


def _unused_imports(sources, allowed) -> list:
    """``src/path:line: name`` for each module-level import of a ``src/``
    module that it never reads or exports and no file imports from it."""
    taken = defaultdict(set)
    for path, source in sources.items():
        for _, module, name in _imports(path, source if path.startswith("repro/") else _from_src(source)):
            taken[module].add(name)
    return [
        f"src/{path}:{node.lineno}: {name}"
        for path, source in sources.items() if path.startswith("repro/")
        # A name bound at module level, also under a top-level ``if`` / ``try``.
        for node, scope in _of(source, ast.Import, ast.ImportFrom)
        if not scope and getattr(node, "module", None) != "__future__"
        for alias in node.names
        for name in [alias.asname or alias.name.partition(".")[0]]
        if name not in _kept(source) and name not in taken[_dotted(path).removesuffix(".__init__")]
    ]


def _dict_backed_records(sources, allowed) -> list:
    """Every ``@dataclass`` that is neither ``slots=True`` nor ``frozen=True``."""
    return [
        f"{path}:{node.lineno}: {node.name}"
        for path, source in sources.items()
        for node, _ in _nodes(source)[ast.ClassDef] if (path, node.name) not in allowed
        for decorator in node.decorator_list if _named(getattr(decorator, "func", decorator)) == "dataclass"
        if not any(word.arg in ("slots", "frozen") and getattr(word.value, "value", None) is True
                   for word in getattr(decorator, "keywords", ()))
    ]


def rule(name: str, scope: tuple, find: Callable, allowed, why: str, *planted: tuple) -> SimpleNamespace:
    allowed = frozenset(allowed)
    return SimpleNamespace(name=name, scope=scope, find=find, allowed=allowed, why=why, planted=planted)


def plant(file: str, old: str, new: str, *expected: str) -> tuple:
    return file, old, new, expected


FUTURE = "from __future__ import annotations\n"
FLASH, FTL, KERNEL = "repro/flash/array.py", "repro/ftl/ftl.py", "repro/sim/kernel.py"
SERVER, STAGE = "repro/serving/server.py", "repro/embedding/stage.py"
DRAM, BASE = "repro/embedding/backends/dram.py", "repro/embedding/backends/base.py"
COMMON, FLEET, OBS = "repro/experiments/common.py", "repro/cluster/scenario.py", "repro/obs/__init__.py"
INJECTOR = "repro/faults/injector.py"
COUNTED = "        channel.reads += 1\n"
SETTLE = "        return self.sim.run_until(lambda: self.queue.inflight == 0, limit)\n"
FIGURE_RUN = "    run(built)\n    return built.front"
LOOKUPS = "n_lookups = bags.ids.size"
BENCH, P99 = "benchmarks/bench_updates.py", "lat = summarize_latencies(stats.latencies)"
FLEET_P99 = "return host_stats.latency_quantile(self.latencies(), q)"
ARM = "        injector.arm_cluster(cluster)\n"
BUILT = "    return Built(scenario, cluster, servers, generators, injector)\n"
BACKENDS = "yield from worker.stage.backends()"
ENTRY, PAYLOAD = "repro/core/request.py", "repro/nvme/payload.py"

RULES = (
    rule(
        "obs-is-the-top-tier", SRC,
        _imports_of(("repro.obs",), ("repro.obs", "repro.experiments"), "{module} imports {target}"), (),
        "``repro.obs`` is the passive top tier: only it and ``repro.experiments`` may import it.  A lower "
        "layer that did (six, through ``obs.resettable``) made importing ``repro.ftl`` execute the whole "
        "tracing tier.",
        plant(FTL, FUTURE, FUTURE + "from ..obs import Tracer\n", "repro.ftl.ftl imports repro.obs.Tracer"),
        plant(KERNEL, "import heapq\n", "import heapq\nimport repro.obs.tracer\n",
              "repro.sim.kernel imports repro.obs.tracer"),
        plant(COMMON, FUTURE, FUTURE + "from ..obs import Tracer\n")),
    rule(
        "only-sim-touches-the-event-heap", SRC,
        _lines(re.compile(r"(?<!\bself)\._(?:heap|seq)\b"), lambda path, sim: path.startswith(tuple(sim))),
        {"repro/sim/"},
        "``Simulator._heap`` / ``._seq`` are shared by the kernel and its resources only (``kernel.py``); a "
        "layer asks ``Simulator.is_latest`` about event order.  An object's own ``self._heap`` is its "
        "business.",
        plant(SERVER, SETTLE, f"        s = self.sim._seq\n{SETTLE}", f"{SERVER}:{{L}}: s = self.sim._seq"),
        plant(SERVER, SETTLE, f"        h = self.sim._heap\n{SETTLE}", f"{SERVER}:{{L}}: h = self.sim._heap"),
        plant(SERVER, SETTLE, f"        s = self._seq\n{SETTLE}")),
    rule(
        "only-sim-writes-a-resource-counter", SRC, _counter_writes,
        {("repro/sim/", counter) for counter in RESOURCE_COUNTERS},
        "Only the owning ``Server`` / ``BandwidthPipe`` writes them, one job or transfer at a time, so "
        "``jobs_started - jobs_completed == busy`` and the utilisation hold with no exception made by hand.",
        *(plant(FLASH, COUNTED, f"        {write}\n{COUNTED}", f"{FLASH}:{{L}}: {name}") for write, name in (
            ("channel.bus.jobs_started += 2", "jobs_started"),
            ("channel.dies[0].jobs_completed -= 1", "jobs_completed"),
            ("channel.bus.busy_time, channel.reads = 0.0, 0", "busy_time"),
            ("setattr(channel.bus, 'bytes_transferred', 0)", "bytes_transferred"),
        ))),
    rule(
        "no-switch-selects-a-twin", SRC, _twin_switches, (),
        "One path per job: the hot path's scalar twins and the switches that selected them are gone; what a "
        "suite still compares against lives under ``tests/``.",
        plant(FTL, "def read_page(self, lpn: int,", "def read_page(self, lpn: int, vectorized: bool,",
              f"{FTL}:{{L}}: read_page(vectorized=)"),
        plant(FTL, "def read_page(self, lpn: int,", "def read_page(self, lpn: int, *, batch_reads=True,",
              f"{FTL}:{{L}}: read_page(batch_reads=)"),
        plant("repro/ftl/ftl_scalar.py", "", "", "repro/ftl/ftl_scalar.py: module named for a scalar twin"),
        plant("repro/core/scalars.py", "", "def pick(ids, vectorized_ids):\n    vectorized = ids\n")),
    rule(
        "src-never-imports-tests", SRC, _imports_of(("tests",)), (),
        "What a suite compares against (the frozen per-bag code, the scalar twins' replays) lives under "
        "``tests/``, out of ``src/``'s reach.",
        plant(DRAM, FUTURE, FUTURE + "from tests.embedding.reference_bags import ref_sls\n",
              f"{DRAM} imports tests.embedding.reference_bags.ref_sls"),
        plant(DRAM, FUTURE, FUTURE + "from . import tests\n"),  # repro.embedding.backends.tests
    ),
    rule(
        "closure-free-per-unit-path", SRC,
        lambda sources, allowed: _free_of(sources, CLOSURE_FREE, _FUNCTIONS), (),
        "What waits in a queue on the per-page / per-command path is a ``__slots__`` record whose bound "
        "methods are the stage callbacks: a ``def`` or ``lambda`` per stage is 3-6 GC-tracked containers per "
        "queued page, which CPython's cyclic collector walks on every pass (``tests/test_gc_budget.py`` "
        "counts them).",
        plant("repro/driver/unvme.py", "self._ring_doorbells, train",
              "lambda: self._ring_doorbells(train), None",
              "repro/driver/unvme.py: UnvmeDriver._issue:{L}: Lambda"),
        plant("repro/driver/unvme.py", "def _deliver(", "def _pick_up(",
              "repro/driver/unvme.py: UnvmeDriver._deliver: no such function"),
        plant("repro/core/engine.py", "_Command(self, entry, done).after_alloc",
              "lambda: _Command(self, entry, done).after_alloc()",
              "repro/core/engine.py: NdpSlsEngine._admit:{L}: Lambda"),
        plant(STAGE, "pool.acquire(piece.launch)", "pool.acquire(lambda: piece.launch())",
              f"{STAGE}: EmbeddingStage.start:{{L}}: Lambda"),
        plant(STAGE, "class _Piece:", "class _Job:", f"{STAGE}: _Piece.*: no such class")),
    rule(
        "src-leaves-the-collector-alone", SRC, _imports_of(("gc",)), (),
        "The collector's thresholds are the process's, not a library's to flip (``docs/ARCHITECTURE.md``, "
        "*Kernel*, has the measurement).",
        plant(KERNEL, "import heapq\n", "import gc\nimport heapq\n", f"{KERNEL} imports gc"),
        plant(KERNEL, "import heapq\n", "from gc import disable\nimport heapq\n",
              f"{KERNEL} imports gc.disable"),
        plant(KERNEL, "import heapq\n", "import heapq\nfrom ..ftl import gc\n"),  # the FTL's collector
    ),
    rule(
        "one-embedding-stage", SRC, _stage_forks, {f"{STAGE}: EmbeddingStage"},
        "Where a table piece lives is data the one stage holds, so replicas, table and row shards run one "
        "class; a second ``*EmbeddingStage``, an ``isinstance`` against one or a ``device_index`` compared "
        "with 0 (the old \"-1 means sharded\") is the fork coming back.",
        plant("repro/serving/sharding.py", FUTURE,
              FUTURE + "\n\nclass ShardedEmbeddingStage(EmbeddingStage):\n    pass\n",
              "repro/serving/sharding.py: ShardedEmbeddingStage"),
        *(plant(SERVER, BACKENDS, f"if {test}: {BACKENDS}", f"{SERVER}:{{L}}: {seen}") for test, seen in (
            ("isinstance(worker.stage, (EmbeddingStage, list))", "isinstance against a stage"),
            ("isinstance(worker.stage, sharding.ShardedEmbeddingStage)", "isinstance against a stage"),
            ("worker.device_index < 0", "device_index compared with 0"),
            ("0 == device_index", "device_index compared with 0"),
        ))),
    rule(
        "one-execution-path", SRC, _second_paths,
        {
            ("start", "repro/serving/scheduler.py", "BatchScheduler._dispatch"),
            ("start", STAGE, "EmbeddingStage.run_sync"),
            ("dense_time", "repro/serving/hostpool.py", "DenseServiceModel.service_s"),
        },
        "The figures' runs and the serving stack are one code: a batch reaches a stage only through "
        "``BatchScheduler._dispatch`` (``run_sync`` on a bare stage), a dense stage is timed only by "
        "``DenseServiceModel.service_s``; an ``embedding/pipeline.py`` was the figures' second timeline.",
        *(plant(COMMON, FIGURE_RUN, f"    {call}\n{FIGURE_RUN}", f"{COMMON}:{{L}}: figure_run") for call in (
            "built.front.workers[model.name][0].stage.start(spec.tenants[0].requests[0].bags, print)",
            "worker_stage.start(spec.tenants[0].requests[0].bags, print)",
        )),
        plant(COMMON, "service_s(server.models[request.model], request.batch.batch_size)",
              "server.models[request.model].dense_time(1, server.system.host_cpu)",
              f"{COMMON}:{{L}}: stage_means"),
        # The stage's own ``self.start`` counts outside ``run_sync`` too.
        plant(STAGE, "            yield from by_table.values()",
              "            self.start({}, print)\n            yield from by_table.values()",
              f"{STAGE}:{{L}}: EmbeddingStage.backends"),
        plant("repro/embedding/pipeline.py", "", "", "repro/embedding/pipeline.py: a pipeline module")),
    rule(
        "no-per-bag-walk", SRC, _per_bag_walks, {(BAGS, "Bags.of")},
        "SLS input is one flat ``Bags`` (``ids``, ``offsets``) from where the ids are drawn: under ``core``, "
        "``embedding``, ``serving`` and ``models`` only ``Bags.of`` walks bag by bag, and its public "
        "spellings hold no loop.  A per-bag ``asarray`` + ``full`` + ``concatenate`` in six layers was 40 % "
        "of ``dram_serve``'s calls.",
        *(plant(DRAM, LOOKUPS, loop, f"{DRAM}:{{L}}: DramSlsBackend._start") for loop in (
            "n_lookups = sum(bag.size for bag in bags)",
            "n_lookups = sum([len(b) for b in cold_bags])",
            "n_lookups = sum(bags[i].size for i in range(len(bags)))",
            "n_lookups = sum(x.size for _, x in enumerate(request.batch.bags[name]))",
            "n_lookups = sum(len(one_bag) for one_bag in zip(things, others))",
        )),
        # Per table, per shard and per request are not per bag.
        plant(DRAM, LOOKUPS, "n_lookups = sum(len(bags) for name, bags in bags_by_table.items())"),
        plant(DRAM, LOOKUPS, "n_lookups = sum(len(part) for part in parts)"),
        plant(DRAM, LOOKUPS, "n_lookups = len([name for name in request.batch.bags.keys()])"),
        # Bags.of's walk, anywhere else in its own module, is an offender.
        plant(BAGS, "    def of(cls, bags", "    def flatten(cls, bags", f"{BAGS}:{{L+6}}: Bags.flatten"),
        plant(BASE, "    bags = Bags.of(bags)\n    return bags.ids, bags.rids",
              "    rows = [as_ids(b) for b in bags]\n    return np.concatenate(rows), None",
              f"{BASE}:{{L}}: flatten_bags", f"{BASE}: flatten_bags:{{L}}: ListComp")),
    rule(
        "a-number-is-computed-one-way", SRC_AND_BENCHMARKS, _second_ways, (),
        "``rank_quantile`` is the only rank rule (``np.percentile`` reports another sample as \"p99\": at "
        "n=60 index 58 vs 59); a fleet's numbers are ``repro.serving.stats``' definitions over its hosts' "
        "windows; a counter is an attribute, not a ``repro.obs`` instrument (``inc`` / ``set`` / "
        "``observe``).",
        *(plant(BENCH, P99, f"p99 = {second}", f"{BENCH}:{{L}}: p99 = {second}") for second in (
            "np.percentile(stats.latencies, 99)",
            "numpy.quantile(stats.latencies, 0.99)",
            "statistics.quantiles(stats.latencies, n=100)[98]",
        )),
        plant("repro/sim/stats.py", "def rank_quantile(",
              "from statistics import mean, quantiles\ndef rank_quantile(",
              "repro/sim/stats.py:{L}: from statistics import mean, quantiles"),
        plant(FLEET_STATS, FLEET_P99, "return rank_quantile(sorted(self.latencies()), q)",
              f"{FLEET_STATS}:{{L}}: rank_quantile"),
        plant(FLEET_STATS, FLEET_P99, "return sim_stats.summarize_latencies(self.latencies())['p99_ms']",
              f"{FLEET_STATS}:{{L}}: summarize_latencies"),
        plant(FLEET_STATS, "from .node import ClusterNode",
              "from ..sim.stats import rank_quantile as pick\nfrom .node import ClusterNode",
              f"{FLEET_STATS}:{{L}}: rank_quantile"),
        plant(OBS, "__all__ = [", "class Counter:\n    def inc(self):\n        pass\n\n\n__all__ = [",
              f"{OBS}:{{L}}: Counter"),
        plant(OBS, "__all__ = [", "class Sampler:\n    def start(self):\n        pass\n\n\n__all__ = [")),
    rule(
        "host-lifecycle-has-one-scheduler", SRC, _second_lifecycle_schedules,
        {("repro/faults/injector.py", f"FaultInjector._do_host_{action}") for action in LIFECYCLE}
        | {("repro/cluster/cluster.py", f"Cluster.{action}") for action in LIFECYCLE},
        "Host drain / fail / restore are events on ``ScenarioSpec.faults``: only the fault injector calls "
        "them (and the ``Cluster`` methods, which hand the call to the node).  A loop of its own over "
        "lifecycle events (``HostEvent``) is a second schedule.",
        # The deleted HostEvent loop, over lifecycle fault events.
        plant(FLEET, ARM, "        for e in spec.scenario.faults.events:\n"
              "            cluster.sim.schedule_at(e.t, lambda e=e: getattr(cluster, e.kind[5:])(e.host))\n"
              + ARM, f"{FLEET}:{{L+1}}: getattr"),
        *(plant(FLEET, ARM, f"        {call}\n{ARM}", f"{FLEET}:{{L}}: setup_cluster") for call in (
            'cluster.drain("host1")', 'cluster.node("host1").fail()', "cluster.nodes[0].restore()",
            "node.drain()",
        )),
        # A drain on anything else (a queue) is not a lifecycle call.
        plant(FLEET, ARM, f"        queue.drain()\n{ARM}"),
        # The injector's allowance is by handler: a new caller there is a stray.
        plant(INJECTOR, "def _do_host_drain(", "def _do_host_park(",
              f"{INJECTOR}:{{L+1}}: FaultInjector._do_host_park")),
    rule(
        "one-driver", SRC, _second_drivers,
        {(name, SCENARIO, "run") for name in DRIVES}
        # The sharding-equivalence check settles one fixed batch on a server
        # its caller built under each policy: one request, no traffic.
        | {("run_until_settled", COMMON, "assert_policy_equivalence")},
        "``repro.workload.scenario.run`` alone plants the update stream and drives the traffic of a server "
        "and of a fleet alike; another caller (the ``age_device`` harnesses, ``run_offered_load``) is a "
        "second driver.",
        # The deleted harnesses' shape, planted where a fleet is set up.
        plant(FLEET, BUILT, "    engine = scenario.updates.make_engine(servers)\n"
              "    stream = UpdateStream(scenario.updates, cluster.models['m'])\n"
              f"    generators_module.run_workload(cluster, generators)\n{BUILT}",
              f"{FLEET}:{{L}}: setup_cluster calls make_engine",
              f"{FLEET}:{{L+1}}: setup_cluster calls UpdateStream",
              f"{FLEET}:{{L+2}}: setup_cluster calls run_workload"),
        # The deleted figure harness's shape: submit every batch, then settle.
        plant(COMMON, FIGURE_RUN, "    for batch in spec.tenants[0].requests:\n"
              "        built.front.submit(model.name, batch)\n"
              f"    built.front.run_until_settled()\n{FIGURE_RUN}",
              f"{COMMON}:{{L+2}}: figure_run calls run_until_settled"),
        # The allowance is by function: the driver under another name is a stray.
        plant(SCENARIO, "def run(built", "def serve(built", *(
            f"{SCENARIO}:{{L+{k}}}: serve calls {name}"
            for k, name in (
                (16, "make_engine"), (17, "UpdateStream"), (23, "run_workload"), (24, "run_until_settled")
            )
        ))),
    rule(
        "traffic-comes-from-above", SRC,
        _imports_of(TRAFFIC_TIERS, TRAFFIC_TIERS + ("repro.obs",), "{path}:{line}: {target}"), (),
        "``repro.workload`` drives servers, ``repro.cluster`` builds fleets and ``repro.experiments`` runs "
        "both: nothing beneath them imports them, in a function body either (``run_offered_load`` did).  "
        "``repro.obs``, the passive top tier, is not beneath them.",
        *(plant(SERVER, SETTLE, f"        {line}\n{SETTLE}", f"{SERVER}:{{L}}: {seen}") for line, seen in (
            ("from ..workload.generators import run_workload", "repro.workload.generators.run_workload"),
            ("import repro.cluster.scenario", "repro.cluster.scenario"),
            ("from .. import experiments", "repro.experiments"),
        )),
        # Inside the traffic tiers (and in obs) the same import is no offence.
        plant("repro/cluster/users.py", FUTURE, FUTURE + "from ..workload.scenario import run\n"),
        plant(OBS, "from ..sim.resettable import (",
              "from ..workload.scenario import run\nfrom ..sim.resettable import (")),
    rule(
        "records-are-slotted-or-frozen", SRC, _dict_backed_records,
        {(SCENARIO, "Built"), (SCENARIO, "RunResult"), (COMMON, "ExperimentResult"),
         ("repro/cluster/users.py", "UserPopulation")},
        "A record built per op or per request has no instance dict: its fields are slots (an SLS request's "
        "buffer entry is read about ten times per NDP page), or it is a frozen spec.  The allowlist is made "
        "once per run: ``Built`` is what ``setup`` hands ``run``, ``RunResult`` what ``run`` returns, "
        "``ExperimentResult`` one figure or table, ``UserPopulation`` one fleet's user base.",
        plant(ENTRY, "@dataclass(slots=True, weakref_slot=True, eq=False)\n", "@dataclass(eq=False)\n",
              f"{ENTRY}:{{L+1}}: SlsRequestEntry"),
        plant(PAYLOAD, "@dataclass(slots=True)\n", "@dataclasses.dataclass(slots=False)\n",
              f"{PAYLOAD}:{{L+1}}: PageImagePayload"),
        plant(PAYLOAD, "@dataclass(slots=True)\n", "@dataclass(frozen=True)\n")),
    rule(
        "no-unused-import", IMPORTERS, _unused_imports, (),
        "An import nothing reads is dead weight at import time and a false lead (``FtlCpuCosts`` outlived "
        "its user).  A module-level name (also under a top-level ``if`` / ``try``) is read, quoted "
        "annotations too, listed in ``__all__``, or imported from the module by a file of the six importer "
        "trees.",
        plant("repro/planted.py", "", (
            f"{FUTURE}import json\nfrom typing import TYPE_CHECKING, Any, Optional\n"
            "from .core.config import SlsConfig\nfrom .flash.array import PageRead\nif TYPE_CHECKING:\n"
            "    from .ftl.ftl import GreedyFtl\n__all__ = ['PageRead']\ndef f(ftl: 'GreedyFtl') -> Any:\n"
            "    return SlsConfig\n"
        ), "src/repro/planted.py:2: json", "src/repro/planted.py:3: Optional"),
        # Out of ``__all__`` but imported from ``repro.obs`` by other files.
        plant(OBS, '    "Tracer",\n', ""),
        plant(OBS, "from .metrics import PeriodicSampler, serving_probe",
              "from .metrics import PeriodicSampler, sample_every, serving_probe",
              f"src/{OBS}:{{L}}: sample_every")),
)


@pytest.fixture(scope="module", autouse=True)
def _forget_the_trees():
    """Later test modules should not walk these trees on every collector pass."""
    yield
    for memo in (_tree, _nodes, _imports, _matches, _kept, _from_src):
        memo.cache_clear()


@pytest.mark.parametrize("rule", RULES, ids=[rule.name for rule in RULES])
def test_rule_holds(rule):
    sources = _tree(rule.scope)
    assert rule.find(sources, rule.allowed) == [], rule.why
    for entry in rule.allowed:
        assert rule.find(sources, rule.allowed - {entry}), f"allowance never used: {entry}"
    assert any(expected for *_, expected in rule.planted), "no planted offence"


@pytest.mark.parametrize(
    "rule, case",
    [(rule, case) for rule in RULES for case in rule.planted],
    ids=[f"{rule.name}-{i}" for rule in RULES for i, _ in enumerate(rule.planted)],
)
def test_planted_case(rule, case):
    file, old, new, expected = case
    sources = dict(_tree(rule.scope))
    text = sources.get(file, "")  # "" plants a new file
    assert text.count(old) == 1, old
    line = text[: text.index(old)].count("\n") + 1
    sources[file] = text.replace(old, new)
    at = [re.sub(r"\{L(?:\+(\d+))?\}", lambda m: str(line + int(m.group(1) or 0)), each) for each in expected]
    assert rule.find(sources, rule.allowed) == at
