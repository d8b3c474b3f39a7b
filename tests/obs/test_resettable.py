"""Resettable-registry unit tests: registration contract and weakness."""

from __future__ import annotations

import gc

import pytest

from repro.obs import register_resettable, reset_all
from repro.serving.request import InferenceRequest
from repro.serving.stats import ServingStats
from repro.sim.kernel import Simulator
from repro.sim.resettable import clear_registry, live_resettables


class _Stats:
    def __init__(self):
        self.n = 5

    def reset_stats(self):
        self.n = 0


class _ResetOnly:
    """A ``reset()`` but no ``reset_stats()``."""

    def reset(self):
        pass


@pytest.fixture(autouse=True)
def isolated_registry():
    """These tests assert on registry contents, so run them against an
    empty one and restore nothing (entries are weak; the production
    singletons re-register when their owners are rebuilt)."""
    clear_registry()
    yield
    clear_registry()


def test_reset_all_clears_registered_objects():
    a, b = _Stats(), _Stats()
    register_resettable(a)
    register_resettable(b)
    assert reset_all() == 2
    assert a.n == 0 and b.n == 0


def test_rejects_object_without_reset_surface():
    for obj in (object(), _ResetOnly()):
        with pytest.raises(TypeError, match="has no reset_stats"):
            register_resettable(obj)


def test_registration_is_weak():
    obj = _Stats()
    register_resettable(obj)
    assert len(live_resettables()) == 1
    del obj
    gc.collect()
    assert live_resettables() == []
    assert reset_all() == 0


def test_double_registration_is_idempotent():
    obj = _Stats()
    register_resettable(obj)
    register_resettable(obj)
    assert len(live_resettables()) == 1


def test_serving_stats_reset_through_the_registry():
    """``ServingStats`` speaks the one protocol: registered, a sweep
    returns it to a fresh object's summary."""
    stats = ServingStats(Simulator())
    fresh = ServingStats(Simulator()).summary()
    request = InferenceRequest(model="m", batch=None)
    stats.record_arrival(request)
    request.t_dispatch, request.t_done = 0.1, 0.2
    stats.record_dispatch([request])
    stats.record_completion(request)
    assert stats.summary() != fresh
    register_resettable(stats)
    assert reset_all() == 1
    assert stats.summary() == fresh
