"""Resettable-registry unit tests: registration contract and weakness."""

from __future__ import annotations

import gc

import pytest

from repro.obs import register_resettable, reset_all
from repro.sim.resettable import clear_registry, live_resettables


class _Stats:
    def __init__(self):
        self.n = 5

    def reset_stats(self):
        self.n = 0


class _Legacy:
    """Only the older ``reset()`` spelling."""

    def __init__(self):
        self.n = 5

    def reset(self):
        self.n = 0


class _Both:
    """Has both; ``reset_stats`` must win (``reset`` may cascade wider)."""

    def __init__(self):
        self.called = None

    def reset_stats(self):
        self.called = "reset_stats"

    def reset(self):
        self.called = "reset"


@pytest.fixture(autouse=True)
def isolated_registry():
    """These tests assert on registry contents, so run them against an
    empty one and restore nothing (entries are weak; the production
    singletons re-register when their owners are rebuilt)."""
    clear_registry()
    yield
    clear_registry()


def test_reset_all_clears_registered_objects():
    a, b = _Stats(), _Legacy()
    register_resettable(a)
    register_resettable(b)
    assert reset_all() == 2
    assert a.n == 0 and b.n == 0


def test_reset_stats_preferred_over_reset():
    obj = _Both()
    register_resettable(obj)
    reset_all()
    assert obj.called == "reset_stats"


def test_rejects_object_without_reset_surface():
    with pytest.raises(TypeError):
        register_resettable(object())


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
