"""When the SSD backend's host-LRU refills and its value read happen.

An SSD op with a host LRU refills the cache as its block reads complete
and gathers its miss vectors once, at the first completion.  The cache
may hold a refill back until something looks at it, and the op may sum
its commands late, so these pin what nobody may observe moving:

* a refill never lands *after* the invalidation that should have
  dropped it (an ``apply_update`` between two completions of one op);
* the op's values are the ones the table held at its first completion;
* ``evictions``, ``occupancy`` and ``contents()`` read straight after
  the last completion are those of inserting per command, in completion
  order (replayed on :class:`ScalarSetAssociativeLru`).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.host.system import build_system
from repro.models.runner import BackendKind, RunnerConfig, required_capacity_pages
from repro.serving import EmbeddingUpdateEngine, InferenceServer, make_model_updatable

from ..serving.conftest import toy_model
from .reference_caches import ScalarSetAssociativeLru


def ssd_server(host_cache_entries: int):
    """A one-table SSD server with a host LRU; one row per flash page."""
    model = toy_model(name="refill", num_tables=1, seed=5)
    make_model_updatable(model)
    server = InferenceServer(build_system(min_capacity_pages=required_capacity_pages(model)))
    server.register_model(
        model,
        BackendKind.SSD,
        RunnerConfig(kind=BackendKind.SSD, host_cache_entries=host_cache_entries),
    )
    (name,) = model.tables
    backend = server.workers[model.name][0].stage.by_shard[0][name]
    assert backend.table.rows_per_page == 1
    return server, model, backend


def log_completions(backend) -> list:
    """Rows in the order their block reads complete (a one-row page per
    command), recorded after the backend's own handler ran."""
    table = backend.table
    driver = backend.system.driver_for(table.device)
    lbas_per_page = table.device.ftl.lbas_per_page
    completed: list = []
    read = driver.read

    def spying_read(slba, nlb, on_done):
        rank = (slba - table.base_lba) // lbas_per_page

        def done(cpl):
            on_done(cpl)
            completed.append(int(table.external_ids(np.array([rank]))[0]))

        read(slba, nlb, done)

    driver.read = spying_read
    return completed


def test_a_refill_never_outlives_the_invalidation_of_its_row():
    server, model, backend = ssd_server(host_cache_entries=256)
    (table_name,) = model.tables
    table, sim = backend.table, server.system.sim
    rows = np.array([3, 700, 1401, 2102, 2803, 3504])
    completed = log_completions(backend)
    box = []
    backend.start([rows], box.append)
    sim.run_until(lambda: len(completed) >= 2)
    assert not box and len(completed) < rows.size      # the op is in flight
    row = completed[0]                                 # read, summed, refilled
    old = table.get_rows(np.array([row]))
    new = (old + np.float32(2.5)).astype(np.float32)
    updates = EmbeddingUpdateEngine(server)
    assert updates.apply_update(model.name, table_name, np.array([row]), new) == 1
    sim.run_until(lambda: bool(box))
    sim.run()                                          # the update's page write

    again = backend.run_sync([np.array([r]) for r in rows])
    assert again.stats["cache_hits"] == rows.size - 1  # every row but the rewritten one
    assert again.stats["commands"] == 1
    assert np.array_equal(again.values[rows.tolist().index(row)], new[0])
    assert row in backend.host_cache
    assert np.array_equal(backend.host_cache.lookup(row), new[0])


@pytest.mark.parametrize("host_cache_entries", [0, 256])
def test_values_are_those_of_the_first_completion(host_cache_entries):
    server, model, backend = ssd_server(host_cache_entries)
    (table_name,) = model.tables
    table, sim = backend.table, server.system.sim
    rows = np.array([5, 911, 1822, 2733, 3644])
    before = table.get_rows(rows)
    completed = log_completions(backend)
    box = []
    backend.start([np.array([r]) for r in rows], box.append)
    sim.run_until(lambda: len(completed) >= 1)
    late = [r for r in rows.tolist() if r not in completed]
    assert len(late) == rows.size - 1
    new = (table.get_rows(np.array(late)) + np.float32(1.5)).astype(np.float32)
    updates = EmbeddingUpdateEngine(server)
    assert updates.apply_update(model.name, table_name, np.array(late), new) == len(late)
    sim.run_until(lambda: bool(box))
    # Committed before their reads completed, and still invisible to the
    # op: it gathered every miss vector at its first completion.
    assert np.array_equal(table.get_rows(np.array(late)), new)
    assert np.array_equal(box[0].values, before)


@pytest.mark.parametrize("read_first", ["evictions", "occupancy", "contents"])
def test_counters_read_right_after_the_last_completion_are_settled(read_first):
    # One 8-way set: 24 distinct rows evict 16 times.
    server, _model, backend = ssd_server(host_cache_entries=8)
    cache = backend.host_cache
    table = backend.table
    rows = np.arange(24) * 97 + 1
    completed = log_completions(backend)
    result = backend.run_sync([rows])
    assert result.stats["commands"] == rows.size and len(completed) == rows.size

    replay = ScalarSetAssociativeLru(cache.capacity, ways=cache.ways)
    for row in completed:
        replay.insert(row, table.get_rows(np.array([row]))[0])
    assert replay.evictions == rows.size - cache.capacity
    look = {
        "evictions": lambda: cache.evictions,
        "occupancy": lambda: cache.occupancy,
        "contents": cache.contents,
    }
    # Whichever is read first finds the last refills already made.
    got = {name: look[name]() for name in [read_first, *look]}
    assert got["evictions"] == replay.evictions
    assert got["occupancy"] == replay.occupancy
    want = replay.contents()
    assert sorted(got["contents"]) == sorted(want)
    for key in want:
        assert np.array_equal(got["contents"][key], want[key])


def test_a_refill_after_a_commit_holds_the_committed_rows():
    """The commit invalidates rows whose reads are still in flight; when
    they complete, the refill must not put the pre-commit vectors back
    (the op gathered them at its first completion)."""
    server, model, backend = ssd_server(host_cache_entries=256)
    (table_name,) = model.tables
    table, sim = backend.table, server.system.sim
    rows = np.array([5, 911, 1822, 2733, 3644])
    completed = log_completions(backend)
    box = []
    backend.start([np.array([r]) for r in rows], box.append)
    sim.run_until(lambda: len(completed) >= 1)
    late = np.array([r for r in rows.tolist() if r not in completed])
    assert late.size == rows.size - 1
    new = (table.get_rows(late) + np.float32(1.5)).astype(np.float32)
    updates = EmbeddingUpdateEngine(server)
    assert updates.apply_update(model.name, table_name, late, new) == late.size
    sim.run_until(lambda: bool(box))
    sim.run()                                          # the update's page writes

    for row, vector in zip(late.tolist(), new):
        assert np.array_equal(backend.host_cache.lookup(row), vector)
    again = backend.run_sync([np.array([r]) for r in rows])
    assert again.stats["cache_hits"] == rows.size
    assert np.array_equal(again.values, table.get_rows(rows))
