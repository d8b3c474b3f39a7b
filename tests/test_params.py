"""Declared parameter domains (``repro.params``) and the spec fuzz.

Every dataclass under ``src/repro`` is walked.  A numeric field (``int``
or ``float``, optional or not) is either declared — its annotation names a
:class:`~repro.params.Domain` — or its class or the field itself is on
``ALLOWED`` with a one-line reason.  Each declared field is then fed NaN,
±inf and values just outside its domain, and construction must refuse
every one with a ``ValueError`` that names the class and the field: the
checker's own, not a later rule that happens to trip.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import math
import pkgutil
import typing
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cluster.scenario import ClusterSpec, UserSpec
from repro.cluster.users import UserPopulation
from repro.embedding.spec import TableSpec
from repro.faults.spec import FaultEvent
from repro.faults.tolerance import BreakerConfig
from repro.flash.geometry import FlashGeometry
from repro.models.dien import DienConfig
from repro.models.din import DinConfig
from repro.models.dlrm import DlrmConfig
from repro.models.ncf import NcfConfig
from repro.models.runner import BackendKind, RunnerConfig
from repro.models.widedeep import WideDeepConfig
from repro.params import Domain, check_domains, declared
from repro.serving.server import ServingConfig
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
    "repro.flash.array._PageRead": RECORD,
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
    "repro.nvme.controller._Read": RECORD,
    "repro.nvme.controller._Write": RECORD,
    "repro.nvme.payload.ReadSegment": RECORD,
    "repro.nvme.payload.PageImagePayload": RECORD,
    "repro.nvme.payload.ReadPayload": RECORD,
    "repro.serving.request.InferenceRequest": RECORD + "; an inf deadline means never",
    "repro.serving.runner.ModelRunResult": RESULT,
    "repro.serving.sharding.ShardPlan": "built by a sharding policy; validate() holds it to the model",
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


def _dataclasses():
    """``{module.Class: class}`` for every dataclass defined under ``repro``."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if (
                isinstance(obj, type)
                and dataclasses.is_dataclass(obj)
                and obj.__module__ == module.__name__
            ):
                found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return found


DATACLASSES = _dataclasses()
DECLARING = {
    name: cls
    for name, cls in DATACLASSES.items()
    if name not in ALLOWED and declared(cls)
}
NUMERIC = (int, float, typing.Optional[int], typing.Optional[float])


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


def accepted(cls, domains) -> list:
    """``(field, value)`` for each out-of-domain value ``cls`` builds with."""
    base = example(cls)
    slipped = []
    for name, domain in domains.items():
        for value in out_of_domain(domain):
            try:
                dataclasses.replace(base, **{name: value})
            except ValueError:
                continue
            slipped.append((name, value))
    return slipped


def test_walk_finds_every_dataclass():
    assert len(DATACLASSES) >= 69, sorted(DATACLASSES)
    assert len(DECLARING) >= 29, sorted(DECLARING)


def test_allowed_names_a_live_dataclass_or_field():
    for name in ALLOWED:
        owner, _, field = name.rpartition(".")
        if name in DATACLASSES:
            continue
        assert owner in DATACLASSES, f"ALLOWED names no dataclass: {name}"
        assert field in {f.name for f in dataclasses.fields(DATACLASSES[owner])}, name


def test_every_numeric_field_is_declared_or_allowed():
    undeclared = []
    for name, cls in DATACLASSES.items():
        if name in ALLOWED:
            continue
        hints = typing.get_type_hints(cls)
        declared_here = declared(cls)
        for field in dataclasses.fields(cls):
            key = f"{name}.{field.name}"
            if (
                hints[field.name] in NUMERIC
                and field.name not in declared_here
                and key not in ALLOWED
            ):
                undeclared.append(key)
    assert not undeclared, f"declare a domain or allow with a reason: {undeclared}"


@pytest.mark.parametrize("name", sorted(DECLARING))
def test_declared_fields_refuse_out_of_domain_values(name):
    cls = DECLARING[name]
    base = example(cls)  # the example itself is in its domain
    assert not accepted(cls, declared(cls))
    for field, domain in declared(cls).items():
        for value in out_of_domain(domain):
            with pytest.raises(ValueError, match=rf"\b{cls.__name__}\.{field} must be"):
                dataclasses.replace(base, **{field: value})


def test_message_names_class_field_and_value():
    with pytest.raises(ValueError) as refused:
        FlashGeometry(channels=math.nan)
    assert str(refused.value) == "FlashGeometry.channels must be an integer in [1, inf), got nan"
    with pytest.raises(ValueError, match=r"ServingConfig\.max_inflight_requests .* got inf"):
        ServingConfig(max_inflight_requests=math.inf)


def test_numpy_numbers_and_optional_none_are_accepted():
    geometry = FlashGeometry(channels=np.int64(2), ways=np.int32(2))
    assert geometry.dies == 4
    assert TenantSpec(model="m", rate=np.float32(2.0), n_requests=np.int64(3)).rate == 2.0
    assert ServingConfig(max_inflight_batches_total=None).max_inflight_batches_total is None
    with pytest.raises(ValueError, match=r"FlashGeometry\.ways must be an integer"):
        FlashGeometry(ways=4.0)


def test_declared_is_resolved_once_per_class(monkeypatch):
    assert list(declared(UserSpec)) == ["n_users", "alpha", "reuse", "seed"]
    assert str(declared(UserSpec)["reuse"]) == "a finite number in [0, 1]"

    def unresolvable(*args, **kwargs):
        raise AssertionError("annotations resolved a second time")

    monkeypatch.setattr(typing, "get_type_hints", unresolvable)
    check_domains(UserSpec(n_users=3))
    with pytest.raises(ValueError, match=r"UserSpec\.n_users"):
        UserSpec(n_users=0)


def test_params_imports_nothing_from_repro():
    source = (Path(repro.__file__).parent / "params.py").read_text()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not (node.module or "").startswith("repro")
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("repro") for a in node.names)
