"""Declared parameter domains (``repro.params``) and the spec fuzz.

Every dataclass under ``src/repro`` is walked, and every public class
whose own ``__init__`` takes a numeric parameter.  A numeric field or
parameter (``int`` or ``float``, optional or not, or a map to one) is
either declared — its annotation names a :class:`~repro.params.Domain` —
or its class or the name itself is on ``ALLOWED`` with a one-line reason.
Each declared one is then fed NaN, ±inf and values just outside its
domain, and construction (or the call, for a checked function) must
refuse every one with a ``ValueError`` that names the owner and the
parameter: the checker's own, not a later rule that happens to trip.
"""

from __future__ import annotations

import ast
import collections.abc
import dataclasses
import importlib
import inspect
import math
import pkgutil
import typing
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.params
from repro.cluster.router import make_router
from repro.cluster.scenario import ClusterSpec, UserSpec
from repro.cluster.users import UserClosedLoopGenerator, UserOpenLoopGenerator, UserPopulation
from repro.embedding.placement import HeatTracker, LayoutMigrator
from repro.embedding.spec import TableSpec
from repro.embedding.table import EmbeddingTable
from repro.faults.spec import FaultEvent
from repro.faults.tolerance import BreakerConfig
from repro.flash.geometry import FlashGeometry
from repro.host.system import build_system
from repro.models.dien import DienConfig
from repro.models.din import DinConfig
from repro.models.dlrm import DlrmConfig, DlrmModel
from repro.models.ncf import NcfConfig
from repro.models.runner import BackendKind, RunnerConfig
from repro.models.widedeep import MultiTaskWideDeepModel, WideDeepConfig
from repro.params import Domain, check_domains, declared
from repro.serving.admission import AdmissionConfig
from repro.serving.hostpool import HostResourceModel
from repro.serving.queue import RequestQueue
from repro.serving.server import ServingConfig
from repro.serving.sharding import ModuloRowMapping, RowShardPolicy
from repro.traces.locality import LocalityTraceGenerator
from repro.traces.powerlaw import ZipfTraceGenerator
from repro.workload.generators import ClosedLoopGenerator, OpenLoopGenerator
from repro.workload.scenario import ScenarioSpec, TenantSpec
from repro.workload.updates import UpdateStreamSpec

RECORD = "runtime record, built per request, command, page or batch"
RESULT = "a run's output, not its input"

# Dataclasses (or single fields, ``module.Class.field``) whose numeric
# fields are not declared, and why.
ALLOWED = {
    "repro.params.Domain": "the domain table itself: an infinite bound means unbounded",
    "repro.core.config.SlsConfig": RECORD,
    "repro.core.engine.SlsResultPayload": RECORD,
    "repro.core.engine._PageJob": RECORD,
    "repro.core.request.PageWork": RECORD,
    "repro.core.request.SlsRequestEntry": RECORD,
    "repro.driver.ndp.SlsTiming": RESULT,
    "repro.driver.ndp._SlsOp": RECORD,
    "repro.embedding.backends.base.SlsOpResult": RESULT,
    "repro.embedding.backends.ndp._NdpOp": RECORD,
    "repro.embedding.backends.ssd._SsdOp": RECORD,
    "repro.embedding.stage.EmbStageResult": RESULT,
    "repro.embedding.stage._Batch": RECORD,
    "repro.embedding.stage._Piece": RECORD,
    "repro.flash.array._PageProgram": RECORD,
    "repro.ftl.ftl._PageRead": RECORD,
    "repro.ftl.ftl._PagesRead": RECORD,
    "repro.ftl.ftl._PageWrite": RECORD,
    "repro.ftl.mover.PageMove": RECORD,
    "repro.models.base.Batch": RECORD,
    "repro.models.base.SparseFeature": "built by a model from its checked config",
    "repro.models.zoo.TableOneRow": "the paper's Table 1, transcribed",
    "repro.nvme.commands.NvmeCommand": RECORD,
    "repro.nvme.commands.NvmeCompletion": RECORD,
    "repro.nvme.controller._Command": RECORD,
    "repro.nvme.controller._Read": RECORD,
    "repro.nvme.controller._Write": RECORD,
    "repro.nvme.payload.ReadSegment": RECORD,
    "repro.nvme.payload.PageImagePayload": RECORD,
    "repro.nvme.payload.ReadPayload": RECORD,
    "repro.serving.request.InferenceRequest": RECORD + "; an inf deadline means never",
    "repro.serving.sharding.ShardPlan": "built by a sharding policy; validate() holds it to the model",
    "repro.workload.scenario.RunResult": RESULT,
    # Classes (or single parameters, ``module.Class.param``) whose
    # ``__init__`` takes a numeric parameter it does not declare, and why.
    "repro.cluster.users.UserClosedLoopGenerator": "hands every number straight to ClosedLoopGenerator",
    "repro.cluster.users.UserOpenLoopGenerator": "hands every number straight to OpenLoopGenerator",
    "repro.core.embcache.DirectMappedEmbeddingCache": "built by NdpSlsEngine from its checked NdpEngineConfig",
    "repro.embedding.table.EmbeddingTable": "its seed only seeds a VirtualTableData, which checks it",
    "repro.embedding.table.TablePageContent": RECORD,
    "repro.flash.array.FlashChannel": "built by FlashArray from its checked FlashGeometry",
    "repro.ftl.gc.GarbageCollector": "built by GreedyFtl from its checked FtlConfig",
    "repro.ftl.wear.WearLeveler": "built by GreedyFtl from its checked FtlConfig",
    "repro.models.dien.DienModel": "hands its seed straight to RecModel",
    "repro.models.din.DinModel": "hands its seed straight to RecModel",
    "repro.models.dlrm.DlrmModel": "hands its seed straight to RecModel",
    "repro.models.layers.AttentionUnit": "built by a model from its checked config",
    "repro.models.layers.GruLayer": "built by a model from its checked config",
    "repro.models.ncf.NcfModel": "hands its seed straight to RecModel",
    "repro.models.widedeep.MultiTaskWideDeepModel": "hands its seed straight to WideDeepModel",
    "repro.models.widedeep.WideDeepModel": "hands its seed straight to RecModel",
    "repro.nvme.queues.CompletionQueue": "built by QueuePair from its checked arguments",
    "repro.nvme.queues.SubmissionQueue": "built by QueuePair from its checked arguments",
    "repro.obs.tracer.Span": RECORD,
    "repro.sim.resources.BandwidthPipe": "refuses its own arguments with SimError, as repro.sim does",
    "repro.sim.resources.Server": "refuses its own arguments with SimError, as repro.sim does",
    "repro.serving.hostpool.HostResourceModel": "hands every number straight to a checked pool",
    "repro.sim.stats.Breakdown": RECORD,
}


def _tenant() -> TenantSpec:
    return TenantSpec(model="m", rate=100.0, n_requests=4)


def _scenario() -> ScenarioSpec:
    return ScenarioSpec(name="s", tenants=(_tenant(),))


# One valid instance of each declaring class that has no defaults.
EXAMPLES = {
    BreakerConfig: lambda: BreakerConfig(latency_threshold_s=0.01),
    FaultEvent: lambda: FaultEvent(t=0.0, kind="read_errors"),
    TableSpec: lambda: TableSpec(name="t", rows=8, dim=4),
    RunnerConfig: lambda: RunnerConfig(kind=BackendKind.NDP),
    TenantSpec: _tenant,
    ScenarioSpec: _scenario,
    UpdateStreamSpec: lambda: UpdateStreamSpec(rate=500.0, n_updates=4),
    UserSpec: lambda: UserSpec(n_users=8),
    UserPopulation: lambda: UserPopulation(n_users=8),
    ClusterSpec: lambda: ClusterSpec(name="c", scenario=_scenario()),
    DlrmConfig: lambda: DlrmConfig(
        name="d", dense_in=4, bottom_mlp=(8,), top_mlp=(8,),
        num_tables=2, table_rows=16, dim=4, lookups=2,
    ),
    NcfConfig: lambda: NcfConfig(
        name="n", user_rows=16, item_rows=16, dim=4, mlp_dims=(8,)
    ),
    WideDeepConfig: lambda: WideDeepConfig(
        name="w", dense_in=4, deep_mlp=(8,), num_tables=2, table_rows=16, dim=4
    ),
    DinConfig: lambda: DinConfig(
        name="i", item_rows=16, dim=4, history=3, attention_hidden=8, top_mlp=(8,)
    ),
    DienConfig: lambda: DienConfig(
        name="e", item_rows=16, dim=4, history=3, gru_hidden=8,
        attention_hidden=8, top_mlp=(8,),
    ),
}


def _walk():
    """``{module.Class: class}`` for every dataclass defined under ``repro``,
    and for every public class there that defines its own ``__init__``."""
    dataclasses_, classes = {}, {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if not isinstance(obj, type) or obj.__module__ != module.__name__:
                continue
            name = f"{obj.__module__}.{obj.__qualname__}"
            if dataclasses.is_dataclass(obj):
                dataclasses_[name] = obj
            elif "__init__" in vars(obj) and not obj.__name__.startswith("_"):
                classes[name] = obj
    return dataclasses_, classes


def _numeric(hint) -> bool:
    """An int or float, optional or not, or a map to one (a domain alias too)."""
    if typing.get_origin(hint) is typing.Annotated:
        hint = typing.get_args(hint)[0]
    args = typing.get_args(hint)
    if type(None) in args:
        return _numeric(next(arg for arg in args if arg is not type(None)))
    if typing.get_origin(hint) in (dict, collections.abc.Mapping):
        return bool(args) and _numeric(args[1])
    return hint in (int, float)


def _as_arg(hint, value):
    """``value`` as an argument of type ``hint``: a one-entry map for a map."""
    args = typing.get_args(hint)
    if type(None) in args:
        hint = next(arg for arg in args if arg is not type(None))
    return {"m": value} if typing.get_origin(hint) in (dict, collections.abc.Mapping) else value


def _parameters(func) -> dict:
    """Parameter name -> resolved annotation; a name imported only for type
    checkers (a class, so never numeric) stays unresolved."""
    func = inspect.unwrap(func)
    hints = {}
    for name, param in inspect.signature(func).parameters.items():
        hint = param.annotation
        if isinstance(hint, str):
            try:
                hint = eval(hint, func.__globals__)
            except NameError:
                pass
        hints[name] = hint
    return hints


def _checked_callables():
    """``{qualname: function}`` for every callable under ``repro`` the
    checker wraps: functions, methods and ``__init__``s."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        members = list(vars(module).values())
        members += [
            member
            for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__
            for member in vars(obj).values()
        ]
        for member in members:
            wrapped = getattr(member, "__wrapped__", None)
            if (
                callable(member)
                and getattr(member, "__module__", None) == module.__name__
                and getattr(member, "__code__", None) is CHECK_THEN_CALL
            ):
                found[wrapped.__qualname__] = member
    return found


CHECK_THEN_CALL = repro.params.checked(lambda: None).__code__
DATACLASSES, CLASSES = _walk()
CONSTRUCTORS = {
    name: cls
    for name, cls in CLASSES.items()
    if any(_numeric(hint) for hint in _parameters(cls.__init__).values())
}
DECLARING = {
    name: cls
    for name, cls in DATACLASSES.items()
    if name not in ALLOWED and declared(cls)
}
CHECKED = _checked_callables()
# Every callable that declares a parameter: a declaring constructor that is
# not wrapped fails the fuzz, since its body runs on the placeholders.
CALLABLES = {
    **{f"{cls.__qualname__}.__init__": cls.__init__
       for name, cls in CONSTRUCTORS.items() if name not in ALLOWED and declared(cls)},
    **CHECKED,
}


def example(cls):
    return EXAMPLES[cls]() if cls in EXAMPLES else cls()


def out_of_domain(domain: Domain) -> list:
    """NaN, ±inf and the nearest values the domain leaves out."""
    step = 1 if domain.integral else 1.0
    values = [math.nan, math.inf, -math.inf]
    if domain.lo > -math.inf:
        values.append(domain.lo if domain.lo_open else domain.lo - step)
    if domain.hi < math.inf:
        values.append(domain.hi if domain.hi_open else domain.hi + step)
    if domain.integral:
        values.append((domain.lo if domain.lo > -math.inf else 0) + 0.5)
    return values


def inside(domain: Domain):
    """A value the domain accepts."""
    value = 0 if domain.lo == -math.inf else domain.lo + (1 if domain.lo_open else 0)
    return min(value, domain.hi) if domain.integral else float(min(value, domain.hi))


def accepted(cls, domains) -> list:
    """``(field, value)`` for each out-of-domain value ``cls`` builds with."""
    base = example(cls)
    hints = typing.get_type_hints(cls, include_extras=True)
    slipped = []
    for name, domain in domains.items():
        for value in out_of_domain(domain):
            try:
                dataclasses.replace(base, **{name: _as_arg(hints[name], value)})
            except ValueError:
                continue
            slipped.append((name, value))
    return slipped


def test_walk_finds_every_dataclass_and_constructor():
    assert len(DATACLASSES) >= 69, sorted(DATACLASSES)
    assert len(DECLARING) >= 29, sorted(DECLARING)
    assert len(CONSTRUCTORS) >= 50, sorted(CONSTRUCTORS)
    assert len(CHECKED) >= 36, sorted(CHECKED)


def test_allowed_names_a_live_class_field_or_parameter():
    for name in ALLOWED:
        owner, _, field = name.rpartition(".")
        if name in DATACLASSES or name in CLASSES:
            continue
        if owner in DATACLASSES:
            assert field in {f.name for f in dataclasses.fields(DATACLASSES[owner])}, name
        else:
            assert owner in CLASSES, f"ALLOWED names no dataclass or class: {name}"
            assert field in inspect.signature(CLASSES[owner]).parameters, name


def test_every_numeric_field_is_declared_or_allowed():
    undeclared = []
    for name, cls in DATACLASSES.items():
        if name in ALLOWED:
            continue
        hints = typing.get_type_hints(cls, include_extras=True)
        declared_here = declared(cls)
        for field in dataclasses.fields(cls):
            key = f"{name}.{field.name}"
            if (
                _numeric(hints[field.name])
                and field.name not in declared_here
                and key not in ALLOWED
            ):
                undeclared.append(key)
    assert not undeclared, f"declare a domain or allow with a reason: {undeclared}"


def test_every_numeric_constructor_parameter_is_declared_or_allowed():
    undeclared = []
    for name, cls in CONSTRUCTORS.items():
        if name in ALLOWED:
            continue
        declared_here = declared(cls)
        for param, hint in _parameters(cls.__init__).items():
            key = f"{name}.{param}"
            if _numeric(hint) and param not in declared_here and key not in ALLOWED:
                undeclared.append(key)
    assert not undeclared, f"declare a domain or allow with a reason: {undeclared}"


def test_records_never_call_the_checker():
    records = [name for name, reason in ALLOWED.items() if reason.startswith(RECORD)]
    for name in records:
        cls = DATACLASSES.get(name) or CLASSES[name]
        assert not hasattr(cls.__init__, "__wrapped__"), name
        assert getattr(cls, "__post_init__", None) is not check_domains, name


@pytest.mark.parametrize("name", sorted(DECLARING))
def test_declared_fields_refuse_out_of_domain_values(name):
    cls = DECLARING[name]
    base = example(cls)  # the example itself is in its domain
    hints = typing.get_type_hints(cls, include_extras=True)
    assert not accepted(cls, declared(cls))
    for field, domain in declared(cls).items():
        for value in out_of_domain(domain):
            with pytest.raises(ValueError, match=rf"\b{cls.__name__}\.{field}(\['m'\])? must be"):
                dataclasses.replace(base, **{field: _as_arg(hints[field], value)})


@pytest.mark.parametrize("name", sorted(CALLABLES))
def test_checked_parameters_refuse_out_of_domain_values(name):
    """Every declared parameter of a checked callable is refused before the
    body runs: undeclared required arguments are placeholders the body
    would choke on, so only the checker's own ``ValueError`` passes."""
    func = CALLABLES[name]
    domains = declared(func)
    assert domains, f"{name} is checked but declares nothing"
    hints = _parameters(func)
    required = {
        param: _as_arg(hints[param], inside(domains[param])) if param in domains else object()
        for param, spec in inspect.signature(func).parameters.items()
        if spec.default is spec.empty and spec.kind is not spec.VAR_KEYWORD
    }
    owner = name.removesuffix(".__init__")
    for param, domain in domains.items():
        for value in out_of_domain(domain):
            with pytest.raises(ValueError, match=rf"^{owner}\.{param}(\['m'\])? must be"):
                func(**{**required, param: _as_arg(hints[param], value)})


# The out-of-domain constructor arguments the checker closed: each was
# accepted, or died inside numpy without naming the argument.
PROBES = [
    ("RequestQueue.max_inflight", lambda: RequestQueue(math.nan)),
    ("RequestQueue.max_inflight", lambda: RequestQueue(2.5)),
    ("HeatTracker.decay_every", lambda: HeatTracker(10, decay_every=math.nan)),
    ("HeatTracker.num_rows", lambda: HeatTracker(math.nan)),
    ("LayoutMigrator.budget_rows", lambda: LayoutMigrator(math.nan)),
    ("LayoutMigrator.budget_rows", lambda: LayoutMigrator(2.5)),
    ("RowShardPolicy.threshold_rows", lambda: RowShardPolicy(threshold_rows=math.nan)),
    ("ModuloRowMapping.rows", lambda: ModuloRowMapping(math.nan, 2)),
    ("OpenLoopGenerator.n_requests", lambda: OpenLoopGenerator("m", 10.0, n_requests=2.5)),
    ("OpenLoopGenerator.batch_size", lambda: OpenLoopGenerator("m", 10.0, 4, batch_size=math.nan)),
    ("ClosedLoopGenerator.num_clients", lambda: ClosedLoopGenerator("m", num_clients=2.5, requests_per_client=2)),
    ("ClosedLoopGenerator.requests_per_client",
     lambda: ClosedLoopGenerator("m", num_clients=2, requests_per_client=math.nan)),
    ("make_router.hash_vnodes", lambda: make_router("consistent_hash", hash_vnodes=math.nan)),
    ("make_router.hash_spread", lambda: make_router("consistent_hash", hash_spread=2.5)),
    ("ZipfTraceGenerator.table_rows", lambda: ZipfTraceGenerator(table_rows=math.nan, alpha=1.0)),
    ("ZipfTraceGenerator.table_rows", lambda: ZipfTraceGenerator(table_rows=2.5, alpha=1.0)),
    ("LocalityTraceGenerator.table_rows", lambda: LocalityTraceGenerator(table_rows=math.nan, k=1.0)),
]


@pytest.mark.parametrize("where, build", PROBES, ids=[f"{w}-{i}" for i, (w, _) in enumerate(PROBES)])
def test_out_of_domain_constructor_arguments_are_refused(where, build):
    with pytest.raises(ValueError, match=rf"^{where} must be an integer"):
        build()


@pytest.mark.parametrize(
    "where, build",
    [
        ("OpenLoopGenerator.rate", lambda: UserOpenLoopGenerator("m", None, rate=math.nan)),
        ("ClosedLoopGenerator.num_clients", lambda: UserClosedLoopGenerator("m", None, 0, 1)),
        ("RecModel.seed", lambda: DlrmModel(EXAMPLES[DlrmConfig](), seed=-1)),
        ("RecModel.seed", lambda: MultiTaskWideDeepModel(
            dataclasses.replace(EXAMPLES[WideDeepConfig](), num_tasks=2), seed=0.5)),
        ("DenseServiceModel.scale", lambda: HostResourceModel(None, None, None, dense_time_scale=0.0)),
        ("DenseWorkerPool.workers", lambda: HostResourceModel(None, None, None, dense_workers=-1)),
        ("VirtualTableData.seed", lambda: EmbeddingTable(TableSpec(name="t", rows=8, dim=4), seed=-1)),
        ("FtlConfig.page_cache_pages", lambda: build_system(page_cache_pages=math.nan)),
    ],
)
def test_pass_through_constructors_are_checked_where_the_number_lands(where, build):
    """The allowlist's "hands ... straight to" reasons, held."""
    with pytest.raises(ValueError, match=rf"^{where} must be"):
        build()


def test_message_names_class_field_and_value():
    with pytest.raises(ValueError) as refused:
        FlashGeometry(channels=math.nan)
    assert str(refused.value) == "FlashGeometry.channels must be an integer in [1, inf), got nan"
    with pytest.raises(ValueError, match=r"ServingConfig\.max_inflight_requests .* got inf"):
        ServingConfig(max_inflight_requests=math.inf)
    with pytest.raises(ValueError) as refused:
        RequestQueue(max_inflight=0)
    assert str(refused.value) == "RequestQueue.max_inflight must be an integer in [1, inf), got 0"


def test_map_values_are_declared_and_named_by_key():
    with pytest.raises(ValueError) as refused:
        AdmissionConfig(slo_by_model={"a": 0.01, "b": math.inf})
    assert str(refused.value) == (
        "AdmissionConfig.slo_by_model['b'] must be a finite number in (0, inf), got inf"
    )
    with pytest.raises(ValueError, match=r"ServingConfig\.dense_service_s_by_model\['m'\]"):
        ServingConfig(dense_service_s_by_model={"m": 0.0})
    assert AdmissionConfig(quota_by_model={"a": np.int64(2)}).quota_for("a") == 2


def test_numpy_numbers_and_optional_none_are_accepted():
    geometry = FlashGeometry(channels=np.int64(2), ways=np.int32(2))
    assert geometry.dies == 4
    assert TenantSpec(model="m", rate=np.float32(2.0), n_requests=np.int64(3)).rate == 2.0
    assert ServingConfig(max_inflight_batches_total=None).max_inflight_batches_total is None
    assert RequestQueue(np.int64(4)).max_inflight == 4
    with pytest.raises(ValueError, match=r"FlashGeometry\.ways must be an integer"):
        FlashGeometry(ways=4.0)


def test_declared_is_resolved_once_per_class_and_callable(monkeypatch):
    assert list(declared(UserSpec)) == ["n_users", "alpha", "reuse", "seed"]
    assert str(declared(UserSpec)["reuse"]) == "a finite number in [0, 1]"
    assert list(declared(HeatTracker)) == ["num_rows", "decay", "decay_every"]
    assert declared(HeatTracker) == declared(HeatTracker.__init__)
    HeatTracker(4)

    def unresolvable(*args, **kwargs):
        raise AssertionError("declarations resolved a second time")

    monkeypatch.setattr(typing, "get_type_hints", unresolvable)
    check_domains(UserSpec(n_users=3))
    with pytest.raises(ValueError, match=r"UserSpec\.n_users"):
        UserSpec(n_users=0)
    HeatTracker(4, decay=0.25)
    with pytest.raises(ValueError, match=r"HeatTracker\.decay "):
        HeatTracker(4, decay=1.5)


def test_params_imports_nothing_from_repro():
    source = (Path(repro.__file__).parent / "params.py").read_text()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not (node.module or "").startswith("repro")
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("repro") for a in node.names)
