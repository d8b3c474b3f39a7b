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
So do a resource's counters: ``jobs_started``, ``jobs_completed``,
``busy_time`` and ``bytes_transferred`` are written only by the
``Server`` / ``BandwidthPipe`` that owns them, one job or transfer at a
time, so ``jobs_started - jobs_completed == busy`` and the utilisation
they give hold with no exception a caller made by hand.

One path per job: the hot path's scalar twins and the ``vectorized=`` /
``batch_reads`` switches that selected them are gone; what a suite still
compares against lives under ``tests/``, out of ``src/``'s reach.

One record per unit of work in flight: the functions every flash page,
FTL page and NVMe command passes through build no closure.  What waits in
a queue is a small ``__slots__`` record whose bound methods are the stage
callbacks — a ``def`` or ``lambda`` per stage is 3-6 GC-tracked
containers per queued page, which CPython's cyclic collector then walks
on every pass (``tests/test_gc_budget.py`` holds the counts).  And
``src/`` leaves the collector alone: its thresholds are the process's,
not a library's to flip (``docs/ARCHITECTURE.md``, *Kernel*, has the
measurement).

One embedding stage: where a table piece lives is data the stage holds,
so a replica, a table-sharded and a row-sharded registration run the
same class.  A second ``*EmbeddingStage``, an ``isinstance`` against one
or a ``device_index`` compared with 0 (the old "-1 means sharded"
sentinel) is the fork coming back; the stage's per-batch records are
held to the per-unit closure rule too.

A number is computed one way: ``repro.sim.stats.rank_quantile`` is the
only rank rule, so no interpolating ``np.percentile`` / ``np.quantile``
/ ``statistics.quantiles`` under ``src/`` or ``benchmarks/`` (a second
rule reports a different sample as "p99": at n=60 index 58 vs 59).  A
fleet's derived numbers are ``repro.serving.stats``'s definitions over
its hosts' windows, so ``cluster/stats.py`` never ranks or summarizes a
population itself.  And a counter is an attribute on the object that
owns it: ``repro.obs`` exports no instrument class (``inc`` / ``set`` /
``observe``) for a hot path to call per bump.

One execution path: the paper figures' runs and the serving stack are
one code.  A batch reaches an embedding stage only through
``BatchScheduler._dispatch`` (``EmbeddingStage.run_sync`` is the
one-batch call experiments make on a bare stage), a dense stage is timed
only by ``DenseServiceModel.service_s``, and ``repro.embedding`` holds no
``pipeline`` module — a second driver with its own dense timeline is the
twin the figures' runs once had.  Traffic is driven only by
``workload.scenario.run`` (the one-driver rule: ``run_workload``, the
update stream and ``run_until_settled``).

SLS input is ``(ids, offsets)`` end to end: one ``repro.core.bags.Bags``
made where the ids are drawn, read flat by every layer below.  Under
``core``, ``embedding``, ``serving`` and ``models`` no loop or
comprehension walks bag by bag except ``Bags.of`` (the one flatten) and
``Bags.__iter__`` (the sequence protocol tests and ``perf/checks.py``
read), and ``flatten_bags`` / ``build_pairs`` — the public spellings of
``Bags.of`` — hold no loop at all.  A per-bag ``np.asarray`` +
``np.full`` + ``np.concatenate`` in each of six layers was 40 % of
``dram_serve``'s calls.

Host lifecycle has one scheduler: a fleet's drain, fail and restore are
``host_drain`` / ``host_fail`` / ``host_restore`` events on
``ScenarioSpec.faults``, so under ``src/`` only the fault injector calls
a cluster's (or a node's) ``drain`` / ``fail`` / ``restore`` — besides
the ``Cluster`` methods of those names, which hand the call to the node.
A loop of its own over lifecycle events (``HostEvent`` was one) is the
second schedule coming back.

Every run has one driver: ``repro.workload.scenario.run`` plants the
update stream and drives the traffic of a standalone server and of a
fleet alike, so under ``src/`` only it calls ``run_workload``,
``UpdateStream`` and ``make_engine``.  A second place that does (three
hand-built harnesses around ``age_device`` once did, and the serving
layer's own open-loop front end ``run_offered_load``) is a second
driver.

Traffic comes from above: ``repro.workload`` drives servers,
``repro.cluster`` builds fleets of them and ``repro.experiments`` runs
both, so no module beneath them imports any of the three — a
function-level import included (``run_offered_load`` hid its upward
import of ``repro.workload`` inside its body).  ``repro.obs``, the
passive top tier, is not beneath them.

Every rule reads ``src/`` through :func:`_parse` and
:func:`_scoped_calls`, both memoized on the source text, so a planted
mutant re-parses and re-walks only the module it changed.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MAY_IMPORT_OBS = ("repro.obs", "repro.experiments")


@functools.lru_cache(maxsize=None)
def _parse(source: str) -> ast.Module:
    """``ast.parse`` memoized on the text; callers only read the tree."""
    return ast.parse(source)


def _imports(path: str, source: str):
    """``(line, absolute dotted name)`` of everything ``source`` imports,
    at any depth; ``path`` is its file relative to ``src/``."""
    package = Path(path).parts[:-1]  # a package's __init__ resolves like its modules
    for node in ast.walk(_parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else ()
            module = ".".join(base + tuple(filter(None, [node.module])))
            for alias in node.names:
                yield node.lineno, f"{module}.{alias.name}"


def _imported_modules(path: Path):
    """Absolute dotted names of everything ``path`` imports."""
    for _, target in _imports(str(path.relative_to(SRC)), path.read_text()):
        yield target


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


RESOURCE_COUNTERS = ("jobs_started", "jobs_completed", "busy_time", "bytes_transferred")


def _counter_writes(sources) -> list:
    """``path:line: counter`` of every assignment (or ``setattr``) to a
    resource counter outside ``repro/sim``."""
    offenders = []
    for path, source in sources.items():
        if path.startswith("repro/sim/"):
            continue
        for node in ast.walk(_parse(source)):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                names = [
                    leaf.attr
                    for target in targets
                    for leaf in ast.walk(target)
                    if isinstance(leaf, ast.Attribute)
                ]
            elif isinstance(node, ast.Call) and _named(node.func) == "setattr":
                names = [arg.value for arg in node.args[1:2] if isinstance(arg, ast.Constant)]
            else:
                continue
            offenders += [
                f"{path}:{node.lineno}: {name}" for name in names if name in RESOURCE_COUNTERS
            ]
    return offenders


def test_only_repro_sim_writes_a_resource_counter():
    assert _counter_writes(_src_sources()) == []


def test_the_counter_rule_sees_planted_writes():
    sources = _src_sources()
    flash = "repro/flash/array.py"
    hop = "        channel.reads += 1\n"
    assert sources[flash].count(hop) == 1
    line = sources[flash][: sources[flash].index(hop)].count("\n") + 2
    for write, name in (
        ("channel.bus.jobs_started += 2", "jobs_started"),
        ("channel.dies[0].jobs_completed -= 1", "jobs_completed"),
        ("channel.bus.busy_time, channel.reads = 0.0, 0", "busy_time"),
        ("setattr(channel.bus, 'bytes_transferred', 0)", "bytes_transferred"),
    ):
        planted = dict(sources, **{flash: sources[flash].replace(hop, f"{hop}        {write}\n")})
        assert _counter_writes(planted) == [f"{flash}:{line}: {name}"], write
    # The owners write them, and only the owners are exempt.
    owner = _counter_writes({"repro/elsewhere.py": sources["repro/sim/resources.py"]})
    assert {found.rpartition(": ")[2] for found in owner} == set(RESOURCE_COUNTERS)


def test_no_switch_selects_a_twin_implementation():
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        if path.stem.endswith("_scalar"):
            offenders.append(f"{path.relative_to(SRC)}: module named for a scalar twin")
        for node in ast.walk(_parse(path.read_text())):
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


# Per module, the functions on the per-page / per-command path; ``Class.*``
# holds every method of a record class to the rule.
CLOSURE_FREE = {
    "repro/flash/array.py": (
        "FlashArray.read", "FlashArray.admit", "FlashArray.program", "FlashArray.erase",
        "FlashArray._erased", "PageRead.*", "_CallbackRead.*", "_PageProgram.*",
    ),
    "repro/ftl/ftl.py": (
        "GreedyFtl.read_page", "GreedyFtl.read_pages", "GreedyFtl.ndp_read",
        "GreedyFtl.write_page", "GreedyFtl._do_write", "GreedyFtl.program_page",
        "GreedyFtl._program_done", "_PageRead.*", "_PagesRead.*", "_PageWrite.*",
    ),
    "repro/ftl/mover.py": ("PageMove.*",),
    "repro/ftl/wear.py": ("WearLeveler._move_page",),
    "repro/nvme/controller.py": (
        "NvmeController._do_read", "NvmeController.complete",
        "NvmeController.dma_to_host", "NvmeController.dma_to_device",
        "NvmeController._do_write_images",
        "_Fetch.*", "_Command.*", "_Read.*", "_Write.*",
    ),
    "repro/driver/unvme.py": ("UnvmeDriver._issue", "UnvmeDriver._deliver"),
    "repro/core/engine.py": (
        "NdpSlsEngine._admit", "NdpSlsEngine.handle_result_read",
        "NdpSlsEngine._stage_results", "NdpSlsEngine._accumulate_cache_hits",
        "NdpSlsEngine._pump", "_PageJob.*", "_Command.*",
    ),
    "repro/embedding/stage.py": ("EmbeddingStage.start", "_Batch.*", "_Piece.*"),
    "repro/driver/ndp.py": ("NdpSlsSession.sls", "_SlsOp.*"),
    "repro/embedding/backends/ndp.py": ("NdpSlsBackend._start", "_NdpOp.*"),
    "repro/embedding/backends/ssd.py": (
        "SsdSlsBackend._start", "SsdSlsBackend._finish", "SsdSlsBackend._deliver", "_SsdOp.*",
    ),
}


def _closure_offenders(source: str, names) -> list:
    """Which of ``names`` build a closure (or are missing) in ``source``."""
    classes = {
        node.name: {
            item.name: item for item in node.body if isinstance(item, ast.FunctionDef)
        }
        for node in _parse(source).body
        if isinstance(node, ast.ClassDef)
    }
    offenders = []
    for name in names:
        owner, method = name.split(".")
        methods = classes.get(owner, {})
        held = methods if method == "*" else {method: methods.get(method)}
        if not held:
            offenders.append(f"{name}: no such class")
        for method, node in held.items():
            if node is None:
                offenders.append(f"{owner}.{method}: no such function")
                continue
            offenders += [
                f"{owner}.{method}:{inner.lineno}: {type(inner).__name__}"
                for inner in ast.walk(node)
                if inner is not node
                and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            ]
    return offenders


def test_the_per_unit_path_builds_no_closure():
    offenders = [
        f"{module}: {offender}"
        for module, names in CLOSURE_FREE.items()
        for offender in _closure_offenders((SRC / module).read_text(), names)
    ]
    assert not offenders, offenders


def test_the_closure_rule_sees_a_planted_lambda_and_a_renamed_function():
    module = "repro/driver/unvme.py"
    source = (SRC / module).read_text()
    hop = "self._ring_doorbells, train"
    assert source.count(hop) == 1
    planted = source.replace(hop, "lambda: self._ring_doorbells(train), None")
    assert _closure_offenders(planted, CLOSURE_FREE[module]) == [
        f"UnvmeDriver._issue:{source[: source.index(hop)].count(chr(10)) + 1}: Lambda"
    ]
    renamed = source.replace("def _deliver(", "def _pick_up(")
    assert _closure_offenders(renamed, CLOSURE_FREE[module]) == [
        "UnvmeDriver._deliver: no such function"
    ]
    # The SLS op too: its stages are a record's bound methods.
    module = "repro/core/engine.py"
    source = (SRC / module).read_text()
    hop = "_Command(self, entry, done).after_alloc"
    assert source.count(hop) == 1
    planted = source.replace(hop, "lambda: _Command(self, entry, done).after_alloc()")
    assert _closure_offenders(planted, CLOSURE_FREE[module]) == [
        f"NdpSlsEngine._admit:{source[: source.index(hop)].count(chr(10)) + 1}: Lambda"
    ]


def test_src_leaves_the_collector_alone():
    offenders = [
        f"{path.relative_to(SRC)} imports {target}"
        for path in sorted(SRC.rglob("*.py"))
        for target in _imported_modules(path)
        if target == "gc" or target.startswith("gc.")
    ]
    assert not offenders, offenders


def _stage_classes(sources) -> list:
    """``path: Class`` for every class named ``*EmbeddingStage``."""
    return [
        f"{path}: {node.name}"
        for path, source in sorted(sources.items())
        for node in ast.walk(_parse(source))
        if isinstance(node, ast.ClassDef) and node.name.endswith("EmbeddingStage")
    ]


def _named(node: ast.AST) -> str:
    return getattr(node, "id", None) or getattr(node, "attr", None) or ""


def _stage_switches(path: str, source: str) -> list:
    """Code that asks which kind of stage (or worker) it was handed."""
    offenders = []
    for node in ast.walk(_parse(source)):
        if (
            isinstance(node, ast.Call)
            and _named(node.func) == "isinstance"
            and len(node.args) == 2
        ):
            kinds = getattr(node.args[1], "elts", [node.args[1]])
            if any(_named(kind).endswith("EmbeddingStage") for kind in kinds):
                offenders.append(f"{path}:{node.lineno}: isinstance against a stage")
        elif isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if any(_named(side) == "device_index" for side in sides) and any(
                isinstance(side, ast.Constant) and side.value == 0 for side in sides
            ):
                offenders.append(f"{path}:{node.lineno}: device_index compared with 0")
    return offenders


def _src_sources() -> dict:
    return {
        str(path.relative_to(SRC)): path.read_text()
        for path in sorted((SRC / "repro").rglob("*.py"))
    }


def test_one_embedding_stage_and_nobody_asks_which():
    sources = _src_sources()
    assert _stage_classes(sources) == ["repro/embedding/stage.py: EmbeddingStage"]
    offenders = [
        offender
        for path, source in sources.items()
        for offender in _stage_switches(path, source)
    ]
    assert not offenders, offenders


def test_the_stage_rules_see_a_second_stage_a_switch_and_a_closure():
    sources = _src_sources()
    fork = "repro/serving/sharding.py"
    planted = dict(sources)
    planted[fork] += "\n\nclass ShardedEmbeddingStage(EmbeddingStage):\n    pass\n"
    assert _stage_classes(planted) == [
        "repro/embedding/stage.py: EmbeddingStage",
        f"{fork}: ShardedEmbeddingStage",
    ]

    server = "repro/serving/server.py"
    hop = "yield from worker.stage.backends()"
    assert hop in sources[server]
    line = sources[server][: sources[server].index(hop)].count("\n") + 1
    for switch, finding in (
        ("isinstance(worker.stage, (EmbeddingStage, list))", "isinstance against a stage"),
        ("isinstance(worker.stage, sharding.ShardedEmbeddingStage)", "isinstance against a stage"),
        ("worker.device_index < 0", "device_index compared with 0"),
        ("0 == device_index", "device_index compared with 0"),
    ):
        mutant = sources[server].replace(hop, f"if {switch}: {hop}")
        assert _stage_switches(server, mutant) == [f"{server}:{line}: {finding}"]
    assert _stage_switches(server, sources[server]) == []

    stage = "repro/embedding/stage.py"
    hop = "pool.acquire(piece.launch)"
    assert hop in sources[stage]
    line = sources[stage][: sources[stage].index(hop)].count("\n") + 1
    mutant = sources[stage].replace(hop, "pool.acquire(lambda: piece.launch())")
    assert _closure_offenders(mutant, CLOSURE_FREE[stage]) == [
        f"EmbeddingStage.start:{line}: Lambda"
    ]
    renamed = sources[stage].replace("class _Piece:", "class _Job:")
    assert _closure_offenders(renamed, CLOSURE_FREE[stage]) == ["_Piece.*: no such class"]


MAY_START_A_STAGE = {
    ("repro/serving/scheduler.py", "BatchScheduler._dispatch"),
    ("repro/embedding/stage.py", "EmbeddingStage.run_sync"),
}
MAY_TIME_DENSE = {("repro/serving/hostpool.py", "DenseServiceModel.service_s")}


def _is_stage(receiver: ast.AST, scope: str) -> bool:
    name = _named(receiver)
    return name.lower().endswith("stage") or (
        name == "self" and scope.startswith("EmbeddingStage.")
    )


@functools.lru_cache(maxsize=None)
def _scoped_calls(source: str) -> tuple:
    """``(call, scope)`` for every call in ``source``; ``scope`` is the
    dotted name of the enclosing function or class ("" at module level)."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call):
                found.append((child, scope))
            visit(child, inner)

    visit(_parse(source), "")
    return tuple(found)


def _calls(sources, method: str, receiver=lambda node, scope: True) -> list:
    """``(path, line, scope)`` of every ``<receiver>.method(...)`` call."""
    return [
        (path, call.lineno, scope or "<module>")
        for path, source in sources.items()
        for call, scope in _scoped_calls(source)
        if isinstance(call.func, ast.Attribute)
        and call.func.attr == method
        and receiver(call.func.value, scope)
    ]


def _second_paths(sources) -> list:
    """Stage starts and dense timings outside their one caller, and any
    ``pipeline`` module under ``repro/embedding``."""
    strays = [
        f"{path}:{line}: {scope}"
        for allowed, found in (
            (MAY_START_A_STAGE, _calls(sources, "start", _is_stage)),
            (MAY_TIME_DENSE, _calls(sources, "dense_time")),
        )
        for path, line, scope in found
        if (path, scope) not in allowed
    ]
    return strays + [
        f"{path}: a pipeline module"
        for path in sources
        if path.startswith("repro/embedding/") and Path(path).stem == "pipeline"
    ]


def test_one_execution_path():
    sources = _src_sources()
    assert _second_paths(sources) == []
    # The allowances are used: each allowed caller is where it is named.
    assert {(p, s) for p, _, s in _calls(sources, "start", _is_stage)} == MAY_START_A_STAGE
    assert {(p, s) for p, _, s in _calls(sources, "dense_time")} == MAY_TIME_DENSE


def test_the_one_path_rule_sees_a_planted_start_a_dense_timing_and_a_pipeline():
    sources = _src_sources()

    def line_of(path: str, hop: str) -> int:
        assert sources[path].count(hop) == 1, hop
        return sources[path][: sources[path].index(hop)].count("\n") + 1

    # Where the paper figures' runs are set up: a stage started, or a
    # dense stage timed, beside the server that already does both.
    common = "repro/experiments/common.py"
    hop = "    run(built)\n    return built.front"
    for planted in (
        "built.front.workers[model.name][0].stage.start(spec.tenants[0].requests[0].bags, print)",
        "worker_stage.start(spec.tenants[0].requests[0].bags, print)",
    ):
        mutant = dict(sources, **{common: sources[common].replace(hop, f"    {planted}\n{hop}")})
        assert _second_paths(mutant) == [
            f"{common}:{line_of(common, hop)}: figure_run"
        ], planted
    hop = "service_s(server.models[request.model], request.batch.batch_size)"
    mutant = dict(
        sources,
        **{common: sources[common].replace(
            hop, "server.models[request.model].dense_time(1, server.system.host_cpu)"
        )},
    )
    assert _second_paths(mutant) == [f"{common}:{line_of(common, hop)}: stage_means"]

    # The stage's own ``self.start`` counts outside ``run_sync`` too.
    stage = "repro/embedding/stage.py"
    hop = "            yield from by_table.values()"
    mutant = dict(
        sources,
        **{stage: sources[stage].replace(hop, hop + "\n        self.start({}, print)")},
    )
    assert _second_paths(mutant) == [f"{stage}:{line_of(stage, hop) + 1}: EmbeddingStage.backends"]

    assert _second_paths(dict(sources, **{"repro/embedding/pipeline.py": ""})) == [
        "repro/embedding/pipeline.py: a pipeline module"
    ]


# Where SLS input travels as one ``Bags`` record.  ``Bags.of`` is the
# only place a list of per-result arrays is walked (and ``__iter__`` the
# only place one is handed back out); everybody else reads the flat
# ``ids`` / ``offsets`` / ``rids``.
PER_BAG_FREE = ("core", "embedding", "serving", "models")
BAGS = "repro/core/bags.py"
MAY_WALK_BAGS = {(BAGS, "Bags.of"), (BAGS, "Bags.__iter__")}
LOOP_FREE = {
    "repro/embedding/backends/base.py": "flatten_bags",
    "repro/core/config.py": "build_pairs",
}
_LOOPS = (ast.For, ast.AsyncFor, ast.While)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_WRAPPERS = ("enumerate", "zip", "reversed", "list", "tuple", "iter", "range", "len")


def _names_bags(name: str, plural: bool) -> bool:
    stem = "bags" if plural else "bag"
    return name == stem or name.endswith("_" + stem)


def _iterated(node: ast.AST):
    """What a loop's iterable walks, through ``enumerate`` / ``zip`` /
    ``range(len(...))`` and the like: the innermost expressions."""
    if isinstance(node, ast.Call) and _named(node.func) in _WRAPPERS:
        for arg in node.args:
            yield from _iterated(arg)
    elif isinstance(node, ast.Subscript):
        yield from _iterated(node.value)
    else:
        yield node


def _per_bag_loops(path: str, source: str) -> list:
    """``path:line: scope`` of every loop or comprehension that walks
    something named ``bags`` / ``*_bags`` or binds a ``bag`` / ``*_bag``."""
    offenders = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            walks = []
            if isinstance(child, (ast.For, ast.AsyncFor)):
                walks = [(child.target, child.iter)]
            elif isinstance(child, _COMPREHENSIONS):
                walks = [(gen.target, gen.iter) for gen in child.generators]
            for target, iterable in walks:
                bound = [_named(name) for name in ast.walk(target)]
                walked = [_named(expr) for expr in _iterated(iterable)]
                if any(_names_bags(name, plural=False) for name in bound) or any(
                    _names_bags(name, plural=True) for name in walked
                ):
                    if (path, scope) not in MAY_WALK_BAGS:
                        offenders.append(f"{path}:{child.lineno}: {scope or '<module>'}")
            visit(child, inner)

    visit(_parse(source), "")
    return offenders


def _loops_in(source: str, function: str) -> list:
    (node,) = [
        node
        for node in _parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name == function
    ]
    return [
        f"{function}:{inner.lineno}: {type(inner).__name__}"
        for inner in ast.walk(node)
        if isinstance(inner, _LOOPS + _COMPREHENSIONS)
    ]


def _per_bag_sources() -> dict:
    return {
        path: source
        for path, source in _src_sources().items()
        if path.split("/")[1] in PER_BAG_FREE
    }


def test_nobody_but_bags_of_walks_bag_by_bag():
    sources = _per_bag_sources()
    assert BAGS in sources and len(sources) > 30
    offenders = [
        offender
        for path, source in sources.items()
        for offender in _per_bag_loops(path, source)
    ]
    assert not offenders, offenders
    # The allowance is used: without it the one flatten is an offender.
    unallowed = _per_bag_loops("elsewhere.py", sources[BAGS])
    assert [found.rpartition(": ")[2] for found in unallowed] == ["Bags.of"]
    for path, function in LOOP_FREE.items():
        assert _loops_in(sources[path], function) == []


def test_the_per_bag_rule_sees_a_planted_loop():
    sources = _per_bag_sources()
    dram = "repro/embedding/backends/dram.py"
    hop = "n_lookups = bags.ids.size"
    assert hop in sources[dram]
    line = sources[dram][: sources[dram].index(hop)].count("\n") + 1
    for loop in (
        "n_lookups = sum(bag.size for bag in bags)",
        "n_lookups = sum([len(b) for b in cold_bags])",
        "n_lookups = sum(bags[i].size for i in range(len(bags)))",
        "n_lookups = sum(x.size for _, x in enumerate(request.batch.bags[name]))",
        "n_lookups = sum(len(one_bag) for one_bag in zip(things, others))",
    ):
        planted = sources[dram].replace(hop, loop)
        assert _per_bag_loops(dram, planted) == [f"{dram}:{line}: DramSlsBackend._start"], loop
    # Per table, per shard and per request are not per bag.
    for fine in (
        "n_lookups = sum(len(bags) for name, bags in bags_by_table.items())",
        "n_lookups = sum(len(part) for part in parts)",
        "n_lookups = len([name for name in request.batch.bags.keys()])",
    ):
        assert _per_bag_loops(dram, sources[dram].replace(hop, fine)) == [], fine
    # Bags.of's walk, anywhere else in its own module, is an offender.
    moved = sources[BAGS].replace("    def of(cls, bags", "    def flatten(cls, bags")
    assert [o.rpartition(": ")[2] for o in _per_bag_loops(BAGS, moved)] == ["Bags.flatten"]

    base = "repro/embedding/backends/base.py"
    hop = "    bags = Bags.of(bags)\n    return bags.ids, bags.rids"
    assert hop in sources[base]
    looped = sources[base].replace(
        hop, "    rows = [as_ids(b) for b in bags]\n    return np.concatenate(rows), None"
    )
    assert [o.partition(":")[0] for o in _loops_in(looped, "flatten_bags")] == ["flatten_bags"]
    assert _per_bag_loops(base, looped) == [
        f"{base}:{sources[base][: sources[base].index(hop)].count(chr(10)) + 1}: flatten_bags"
    ]


BENCHMARKS = SRC.parent / "benchmarks"
SECOND_RANK_RULE = re.compile(
    r"\b(?:np|numpy)\.(?:nan)?(?:percentile|quantile)\b"
    r"|\bstatistics\.quantiles\b"
    r"|\bfrom\s+(?:numpy|statistics)\s+import\b.*\b(?:percentile|quantiles?)\b"
)


def _second_rank_rules(sources) -> list:
    return [
        f"{path}:{number}: {line.strip()}"
        for path, source in sources.items()
        for number, line in enumerate(source.splitlines(), 1)
        if SECOND_RANK_RULE.search(line)
    ]


def _ranks_or_summarizes(path: str, source: str) -> list:
    """Every mention (import, call, attribute) of the rank rule or the
    latency summary in one module's code — docstrings do not count."""
    offenders = []
    for node in ast.walk(_parse(source)):
        name = (
            node.name.rpartition(".")[2]
            if isinstance(node, ast.alias)
            else _named(node)
        )
        if name in ("rank_quantile", "summarize_latencies"):
            offenders.append(f"{path}:{node.lineno}: {name}")
    return offenders


def _instrument_classes(exports: dict) -> list:
    return sorted(
        name
        for name, obj in exports.items()
        if isinstance(obj, type)
        and any(hasattr(obj, method) for method in ("inc", "set", "observe"))
    )


def _obs_exports() -> dict:
    import repro.obs

    return {name: getattr(repro.obs, name) for name in repro.obs.__all__}


def _rank_rule_sources() -> dict:
    sources = _src_sources()
    sources.update(
        (f"benchmarks/{path.name}", path.read_text())
        for path in sorted(BENCHMARKS.glob("*.py"))
    )
    return sources


FLEET_STATS = "repro/cluster/stats.py"


def test_a_number_is_computed_one_way():
    sources = _rank_rule_sources()
    assert any(path.startswith("benchmarks/") for path in sources)
    assert _second_rank_rules(sources) == []
    assert _ranks_or_summarizes(FLEET_STATS, sources[FLEET_STATS]) == []
    assert _instrument_classes(_obs_exports()) == []


def test_the_one_way_rules_see_a_second_rank_rule_a_fleet_fork_and_an_instrument():
    sources = _rank_rule_sources()
    bench = "benchmarks/bench_updates.py"
    hop = 'lat = summarize_latencies(stats.latencies)'
    assert hop in sources[bench]
    line = sources[bench][: sources[bench].index(hop)].count("\n") + 1
    for second in (
        "np.percentile(stats.latencies, 99)",
        "numpy.quantile(stats.latencies, 0.99)",
        "statistics.quantiles(stats.latencies, n=100)[98]",
    ):
        planted = dict(sources)
        planted[bench] = sources[bench].replace(hop, f"p99 = {second}")
        assert _second_rank_rules(planted) == [f"{bench}:{line}: p99 = {second}"]
    planted = dict(sources)
    planted["repro/sim/stats.py"] += "\nfrom statistics import mean, quantiles\n"
    assert len(_second_rank_rules(planted)) == 1

    hop = "return host_stats.latency_quantile(self.latencies(), q)"
    assert hop in sources[FLEET_STATS]
    line = sources[FLEET_STATS][: sources[FLEET_STATS].index(hop)].count("\n") + 1
    for fork, name in (
        ("return rank_quantile(sorted(self.latencies()), q)", "rank_quantile"),
        ("return sim_stats.summarize_latencies(self.latencies())['p99_ms']",
         "summarize_latencies"),
    ):
        mutant = sources[FLEET_STATS].replace(hop, fork)
        assert _ranks_or_summarizes(FLEET_STATS, mutant) == [
            f"{FLEET_STATS}:{line}: {name}"
        ]
    imported = sources[FLEET_STATS].replace(
        "from .node import ClusterNode",
        "from ..sim.stats import rank_quantile as pick\nfrom .node import ClusterNode",
    )
    assert len(_ranks_or_summarizes(FLEET_STATS, imported)) == 1

    class Counter:
        def inc(self):
            pass

    class Sampler:
        def start(self):
            pass

    exports = dict(_obs_exports(), Counter=Counter, Sampler=Sampler)
    assert _instrument_classes(exports) == ["Counter"]


LIFECYCLE = ("drain", "fail", "restore")
INJECTOR = "repro/faults/injector.py"
MAY_CALL_LIFECYCLE = {
    (INJECTOR, f"FaultInjector._do_host_{action}") for action in LIFECYCLE
} | {("repro/cluster/cluster.py", f"Cluster.{action}") for action in LIFECYCLE}


def _holds_hosts(receiver: ast.AST, scope: str = "") -> bool:
    """A cluster, a node (``nodes[i]`` too), or ``<anything>.node(...)``."""
    while isinstance(receiver, ast.Subscript):
        receiver = receiver.value
    if isinstance(receiver, ast.Call):
        return _named(receiver.func) == "node"
    return _named(receiver).lower().endswith(("cluster", "node", "nodes"))


def _lifecycle_calls(sources) -> list:
    """``(path, line, scope)`` of every ``drain`` / ``fail`` / ``restore``
    call on a cluster or a node."""
    return sorted(
        found
        for action in LIFECYCLE
        for found in _calls(sources, action, _holds_hosts)
    )


def _second_lifecycle_schedules(sources) -> list:
    """Lifecycle calls outside their allowed callers, and any
    ``getattr(<cluster or node>, ...)(...)`` — a lifecycle call by name."""
    strays = [
        f"{path}:{line}: {scope}"
        for path, line, scope in _lifecycle_calls(sources)
        if (path, scope) not in MAY_CALL_LIFECYCLE
    ]
    for path, source in sources.items():
        for call, _ in _scoped_calls(source):
            func = call.func
            if (
                isinstance(func, ast.Call)
                and _named(func.func) == "getattr"
                and func.args
                and _holds_hosts(func.args[0])
            ):
                strays.append(f"{path}:{call.lineno}: getattr")
    return strays


def test_host_lifecycle_has_one_scheduler():
    sources = _src_sources()
    assert _second_lifecycle_schedules(sources) == []
    # The allowances are used: each allowed caller is where it is named.
    assert {(p, s) for p, _, s in _lifecycle_calls(sources)} == MAY_CALL_LIFECYCLE


def test_the_lifecycle_rule_sees_a_planted_loop_and_direct_calls():
    sources = _src_sources()
    runner = "repro/cluster/scenario.py"
    hop = "        injector.arm_cluster(cluster)\n"
    assert sources[runner].count(hop) == 1
    line = sources[runner][: sources[runner].index(hop)].count("\n") + 2
    # The deleted HostEvent loop, over lifecycle fault events.
    loop = (
        "        for e in spec.scenario.faults.events:\n"
        "            cluster.sim.schedule_at(e.t, lambda e=e: "
        "getattr(cluster, e.kind[5:])(e.host))\n"
    )
    mutant = dict(sources, **{runner: sources[runner].replace(hop, hop + loop)})
    assert _second_lifecycle_schedules(mutant) == [f"{runner}:{line + 1}: getattr"]
    for call in (
        'cluster.drain("host1")',
        'cluster.node("host1").fail()',
        "cluster.nodes[0].restore()",
        "node.drain()",
    ):
        mutant = dict(sources, **{runner: sources[runner].replace(hop, f"{hop}        {call}\n")})
        assert _second_lifecycle_schedules(mutant) == [
            f"{runner}:{line}: setup_cluster"
        ], call
    # A drain on anything else (a queue) is not a lifecycle call.
    unrelated = dict(sources, **{runner: sources[runner].replace(hop, f"{hop}        queue.drain()\n")})
    assert _second_lifecycle_schedules(unrelated) == []
    # The injector's allowance is by handler: a new caller there is a stray.
    injector = sources[INJECTOR]
    handler, call = "    def _do_host_drain(", "cluster.drain(event.host)"
    assert injector.count(handler) == injector.count(call) == 1
    call_line = injector[: injector.index(call)].count("\n") + 1
    moved = dict(sources, **{INJECTOR: injector.replace(handler, "    def _do_host_park(")})
    assert _second_lifecycle_schedules(moved) == [
        f"{INJECTOR}:{call_line}: FaultInjector._do_host_park"
    ]


SCENARIO = "repro/workload/scenario.py"
MAY_DRIVE = {
    "run_workload": {(SCENARIO, "run")},
    "UpdateStream": {(SCENARIO, "run")},
    "make_engine": {(SCENARIO, "run")},
    # The sharding-equivalence check settles one fixed batch on a server
    # its caller built under each policy: one request, no traffic.
    "run_until_settled": {
        (SCENARIO, "run"),
        ("repro/experiments/common.py", "assert_policy_equivalence"),
    },
}


def _callers(sources, name: str) -> list:
    """``(path, line, scope)`` of every call to ``name`` or ``<x>.name``."""
    return [
        (path, call.lineno, scope or "<module>")
        for path, source in sources.items()
        for call, scope in _scoped_calls(source)
        if _named(call.func) == name
    ]


def _second_drivers(sources) -> list:
    """Traffic or an update stream started outside the one driver."""
    return sorted(
        f"{path}:{line}: {scope} calls {name}"
        for name, allowed in MAY_DRIVE.items()
        for path, line, scope in _callers(sources, name)
        if (path, scope) not in allowed
    )


def test_one_driver():
    sources = _src_sources()
    assert _second_drivers(sources) == []
    # The allowances are used: each allowed caller is where it is named.
    for name, allowed in MAY_DRIVE.items():
        assert {(p, s) for p, _, s in _callers(sources, name)} == allowed, name


def test_the_driver_rule_sees_a_planted_harness_and_a_renamed_driver():
    sources = _src_sources()
    # The deleted harnesses' shape, planted where a fleet is set up.
    fleet = "repro/cluster/scenario.py"
    hop = "    return Built(scenario, cluster, servers, generators, injector)\n"
    assert sources[fleet].count(hop) == 1
    line = sources[fleet][: sources[fleet].index(hop)].count("\n") + 1
    harness = (
        "    engine = scenario.updates.make_engine(servers)\n"
        "    stream = UpdateStream(scenario.updates, cluster.models['m'])\n"
        "    generators_module.run_workload(cluster, generators)\n"
    )
    mutant = dict(sources, **{fleet: sources[fleet].replace(hop, harness + hop)})
    assert _second_drivers(mutant) == [
        f"{fleet}:{line}: setup_cluster calls make_engine",
        f"{fleet}:{line + 1}: setup_cluster calls UpdateStream",
        f"{fleet}:{line + 2}: setup_cluster calls run_workload",
    ]
    # The deleted figure harness's shape: submit every batch, then settle.
    common = "repro/experiments/common.py"
    hop = "    run(built)\n    return built.front"
    assert sources[common].count(hop) == 1
    line = sources[common][: sources[common].index(hop)].count("\n") + 1
    harness = (
        "    for batch in spec.tenants[0].requests:\n"
        "        built.front.submit(model.name, batch)\n"
        "    built.front.run_until_settled()\n"
    )
    mutant = dict(sources, **{common: sources[common].replace(hop, harness + hop)})
    assert _second_drivers(mutant) == [
        f"{common}:{line + 2}: figure_run calls run_until_settled",
    ]
    # The allowance is by function: the driver under another name is a stray.
    renamed = sources[SCENARIO].replace("def run(built", "def serve(built")
    assert renamed != sources[SCENARIO]
    strays = _second_drivers(dict(sources, **{SCENARIO: renamed}))
    assert [s.rpartition(": ")[2] for s in strays] == [
        "serve calls make_engine",
        "serve calls UpdateStream",
        "serve calls run_workload",
        "serve calls run_until_settled",
    ]


TRAFFIC_TIERS = ("repro.workload", "repro.cluster", "repro.experiments")
ABOVE_SERVERS = TRAFFIC_TIERS + ("repro.obs",)


def _within(name: str, packages) -> bool:
    return any(name == p or name.startswith(p + ".") for p in packages)


def _upward_imports(sources) -> list:
    """``path:line: target`` of every import of a traffic tier from a
    module beneath the three."""
    return [
        f"{path}:{line}: {target}"
        for path, source in sorted(sources.items())
        if not _within(".".join(Path(path).with_suffix("").parts), ABOVE_SERVERS)
        for line, target in _imports(path, source)
        if _within(target, TRAFFIC_TIERS)
    ]


def test_traffic_comes_from_above():
    assert _upward_imports(_src_sources()) == []


def test_the_layer_order_rule_sees_a_planted_function_level_import():
    sources = _src_sources()
    server = "repro/serving/server.py"
    hop = "        return self.sim.run_until(lambda: self.queue.inflight == 0, limit)\n"
    assert sources[server].count(hop) == 1
    line = sources[server][: sources[server].index(hop)].count("\n") + 1
    # The deleted front end's import, hidden in a method body.
    for planted, target in (
        ("from ..workload.generators import run_workload", "repro.workload.generators.run_workload"),
        ("import repro.cluster.scenario", "repro.cluster.scenario"),
        ("from .. import experiments", "repro.experiments"),
    ):
        mutant = dict(sources, **{server: sources[server].replace(hop, f"        {planted}\n{hop}")})
        assert _upward_imports(mutant) == [f"{server}:{line}: {target}"], planted
    # Inside the traffic tiers (and in obs) the same import is no offence.
    for inside in ("repro/cluster/users.py", "repro/obs/__init__.py"):
        lifted = dict(sources, **{inside: "from ..workload.scenario import run\n" + sources[inside]})
        assert _upward_imports(lifted) == [], inside
