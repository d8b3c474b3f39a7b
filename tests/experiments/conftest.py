"""Experiment results, each run once per session at the size tier-1
asserts on (``tier1.run``) and only when a test first reads it."""

import functools

import pytest

from . import tier1


@pytest.fixture(scope="session")
def results():
    return functools.lru_cache(maxsize=None)(tier1.run)
