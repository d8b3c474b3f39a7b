"""The instant an NDP op reads a value: each page at its own translate.

A two-page NDP op is stopped between its two translate instants (page A
comes from the FTL page cache, so it translates while page B is still a
flash read away).  Whatever changes the table *there* — an update batch
committed through ``EmbeddingUpdateEngine.apply_update``, or a
``repack_ranks`` through ``LayoutMigrator.on_block_reclaimed`` — must be
invisible to page A's rows and visible to page B's: the result holds the
old value for the first and the new value for the second.

The engine may defer the numeric work of a translated page, so this pins
that the deferral never crosses a commit or a re-pack — with the device
embedding cache off and on.

With the cache on, a translated page claims its rows' cache slots at
once and owes the vectors until its entry gathers.  The second half
stops entry X in that state (page A tagged, its vector owed) and pins
that nobody can tell: another entry's probe, a direct look into
``device.ndp.emb_cache``, a conflicting row taking the slot and a commit
rewriting the row all see what inserting at the translate instant gave.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import NdpEngineConfig
from repro.driver.sync import sync_read
from repro.embedding.placement import HeatTracker, LayoutMigrator
from repro.host.system import build_system
from repro.models.runner import BackendKind, required_capacity_pages
from repro.serving import EmbeddingUpdateEngine, InferenceServer, make_model_updatable

from ..serving.conftest import toy_model

CACHE_SLOTS = pytest.mark.parametrize("embcache_slots", [0, 64])


def ndp_server(embcache_slots, heat=None):
    """A one-table NDP server; returns ``(server, model, table)``."""
    model = toy_model(name="instant", num_tables=1, seed=5)
    make_model_updatable(model)
    if heat is not None:
        for table in model.tables.values():
            table.set_heat(heat(table.spec.rows))
    server = InferenceServer(
        build_system(
            min_capacity_pages=required_capacity_pages(model),
            ndp=NdpEngineConfig(queue_when_full=True, embcache_slots=embcache_slots),
        )
    )
    server.register_model(model, BackendKind.NDP)
    (name,) = model.tables
    table = server.workers[model.name][0].stage.by_shard[0][name].table
    return server, model, table


def page_into_ftl_cache(server, table, rank):
    """Read ``rank``'s page through the block path: its NDP fetch is then
    a page-cache peek hit, translated long before any flash read."""
    device = table.device
    lbas_per_page = device.ftl.lbas_per_page
    cpl = sync_read(
        server.system.sim,
        server.system.driver_for(device),
        table.base_lba + rank // table.rows_per_page * lbas_per_page,
        lbas_per_page,
    )
    assert cpl.ok


def submit(server, table, ranks) -> list:
    """Start an SLS with one bag per rank; its payload lands in the box."""
    box = []
    server.system.session_for(table.device).sls(
        table.make_sls_config([table.external_ids(np.array([rank])) for rank in ranks]),
        lambda payload, _timing: box.append(payload),
    )
    return box


def run_torn_op(server, table, rank_a, rank_b, between):
    """SLS over the rows at ``rank_a`` / ``rank_b`` (one bag each), calling
    ``between()`` after page A translated and before page B did."""
    system = server.system
    engine = table.device.ndp
    rpp = table.rows_per_page
    assert rank_a // rpp != rank_b // rpp
    page_into_ftl_cache(server, table, rank_a)
    box = submit(server, table, [rank_a, rank_b])

    def one_page_translated() -> bool:
        return any(e.pages_done == 1 for e in engine.entries.values())

    system.sim.run_until(one_page_translated)
    (entry,) = engine.entries.values()
    # Exactly A is translated: one page done, none queued or translating,
    # and the cached page cannot be the one still in flash.
    assert entry.pages_total == 2 and entry.pages_done == 1
    assert not entry.pending_pages and entry.pages_inflight == 0
    assert entry.page_cache_hits == 1 and entry.flash_pages_read == 1
    assert not box
    between()
    system.sim.run_until(lambda: bool(box))
    return box[0].values


@CACHE_SLOTS
def test_update_commit_between_two_translates(embcache_slots):
    server, model, table = ndp_server(embcache_slots)
    (table_name,) = model.tables
    rpp = table.rows_per_page
    rank_a, rank_b = 3 * rpp, 7 * rpp
    rows = np.array([rank_a, rank_b])        # no layout: rank == row id
    old = table.get_rows(rows)
    new = (old + np.float32(1.5)).astype(np.float32)
    updates = EmbeddingUpdateEngine(server)

    def commit() -> None:
        assert updates.apply_update(model.name, table_name, rows, new) == 2

    values = run_torn_op(server, table, rank_a, rank_b, commit)
    assert np.array_equal(table.get_rows(rows), new)
    assert np.array_equal(values[0], old[0])     # translated before the commit
    assert np.array_equal(values[1], new[1])     # translated after it


@CACHE_SLOTS
def test_repack_between_two_translates(embcache_slots):
    # Load-time heat descending by id: a FrequencyLayout that starts as
    # the identity.  The tracker says the opposite, so re-packing pages
    # 0 and 1 reverses their rows.
    server, _model, table = ndp_server(
        embcache_slots, heat=lambda rows: np.arange(rows, 0, -1.0)
    )
    rpp = table.rows_per_page
    rank_a, rank_b = 0, rpp
    before = table.external_ids(np.array([rank_a, rank_b]))
    tracker = HeatTracker(table.spec.rows, initial=np.arange(table.spec.rows, dtype=np.float64))
    migrator = LayoutMigrator(budget_rows=2 * rpp)
    migrator.register(table, tracker)
    base_lpn = table.base_lba // table.device.ftl.lbas_per_page

    def repack() -> None:
        migrator.on_block_reclaimed([base_lpn, base_lpn + 1])
        assert migrator.repacks == 1

    values = run_torn_op(server, table, rank_a, rank_b, repack)
    after = table.external_ids(np.array([rank_a, rank_b]))
    assert before[0] != after[0] and before[1] != after[1]
    assert np.array_equal(values[0], table.get_rows(before[:1])[0])  # old occupant
    assert np.array_equal(values[1], table.get_rows(after[1:])[0])   # new occupant


# ----------------------------------------------------------------------
# Cache on: entry X stopped with page A's slot tagged and its vector owed
# ----------------------------------------------------------------------
def owed_server():
    """A 64-slot NDP server; returns ``(server, model, table, rank_a,
    rank_b, table_key)`` for an X torn between ``rank_a`` and ``rank_b``."""
    server, model, table = ndp_server(embcache_slots=64)
    rpp = table.rows_per_page
    table_key = table.base_lba // table.device.ftl.lbas_per_page
    return server, model, table, 3 * rpp, 7 * rpp, table_key


def row_vector(table, rank) -> np.ndarray:
    return table.get_rows(table.external_ids(np.array([rank])))[0]


def test_another_entry_hits_a_row_translated_but_not_yet_gathered():
    server, _model, table, rank_a, rank_b, _key = owed_server()
    engine = table.device.ndp
    boxes = []

    def y_comes_and_goes() -> None:
        (x,) = engine.entries.values()
        boxes.append(submit(server, table, [rank_a, rank_a]))
        server.system.sim.run_until(lambda: bool(boxes[0]))
        assert x.pages_done == 1                 # X still waits for page B

    values = run_torn_op(server, table, rank_a, rank_b, y_comes_and_goes)
    # Y was served from the cache alone, by the page X had only translated.
    ((y,),) = boxes
    assert y.emb_cache_hits == 2
    assert y.flash_pages_read == 0 and y.page_cache_hits == 0
    want = row_vector(table, rank_a)
    assert np.array_equal(y.values, np.stack([want, want]))
    assert np.array_equal(values, np.stack([want, row_vector(table, rank_b)]))


@pytest.mark.parametrize("reader", ["lookup", "lookup_many", "probe_many"])
def test_a_look_into_the_cache_finds_the_vector_of_a_translated_page(reader):
    server, _model, table, rank_a, rank_b, key = owed_server()
    cache = table.device.ndp.emb_cache
    # An earlier op allocates the cache's storage: a slot tagged and
    # never filled would read as zeros.
    warm = submit(server, table, [rank_b + 1])
    server.system.sim.run_until(lambda: bool(warm))
    read = {
        "lookup": lambda: cache.lookup(key, rank_a),
        "lookup_many": lambda: cache.lookup_many(key, np.array([rank_a]))[1][0],
        "probe_many": lambda: cache.probe_many(key, np.array([rank_a]))[1][0],
    }[reader]
    seen = []
    run_torn_op(server, table, rank_a, rank_b, lambda: seen.append(read().copy()))
    assert np.array_equal(seen[0], row_vector(table, rank_a))
    assert cache.hits == 1


def test_a_conflicting_row_takes_the_slot_while_the_vector_is_owed():
    server, _model, table, rank_a, rank_b, key = owed_server()
    sim, engine = server.system.sim, table.device.ndp
    cache = engine.emb_cache
    # 64 rows apart: the same slot of a 64-slot cache, another page.
    rank_z = rank_a + 64 * table.rows_per_page
    slot = cache._slot(key, rank_a)
    assert cache._slot(key, rank_z) == slot
    page_into_ftl_cache(server, table, rank_a)
    # Z's config is probed before any page is translated (a probe settles
    # every entry); its one flash page comes back after X's cached page A
    # and before X's flash page B.
    z_box = submit(server, table, [rank_z])
    x_box = submit(server, table, [rank_a, rank_b])
    sim.run_until(lambda: cache.inserts == 1)
    assert cache.tags[slot] == (key, rank_a)
    sim.run_until(lambda: cache.inserts == 2)
    assert cache.tags[slot] == (key, rank_z) and cache.conflict_evictions == 1
    z, x = engine.entries.values()
    assert (z.pages_done, z.pages_total) == (1, 1) and (x.pages_done, x.pages_total) == (1, 2)
    sim.run_until(lambda: bool(z_box and x_box))
    # X gathered last and must not have put A's vector under Z's tag.
    assert cache.lookup(key, rank_a) is None
    assert np.array_equal(cache.lookup(key, rank_z), row_vector(table, rank_z))
    assert np.array_equal(cache.lookup(key, rank_b), row_vector(table, rank_b))
    assert np.array_equal(x_box[0].values[0], row_vector(table, rank_a))
    assert np.array_equal(z_box[0].values[0], row_vector(table, rank_z))


def test_a_commit_rewrites_a_row_whose_vector_is_owed():
    server, model, table, rank_a, rank_b, key = owed_server()
    (table_name,) = model.tables
    cache = table.device.ndp.emb_cache
    row_a = table.external_ids(np.array([rank_a]))
    old = table.get_rows(row_a)
    new = (old + np.float32(1.5)).astype(np.float32)
    updates = EmbeddingUpdateEngine(server)

    def commit() -> None:
        assert updates.apply_update(model.name, table_name, row_a, new) == 1
        assert updates.invalidations == 1        # the tag was there to drop

    values = run_torn_op(server, table, rank_a, rank_b, commit)
    assert np.array_equal(values[0], old[0])     # read before the commit
    server.system.sim.run()                      # the update's page write
    assert cache.lookup(key, rank_a) is None
    again = submit(server, table, [rank_a])
    server.system.sim.run_until(lambda: bool(again))
    assert again[0].emb_cache_hits == 0
    assert np.array_equal(again[0].values[0], new[0])
