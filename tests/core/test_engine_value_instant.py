"""The instant an NDP op reads a value: each page at its own translate.

A two-page NDP op is stopped between its two translate instants (page A
comes from the FTL page cache, so it translates while page B is still a
flash read away).  Whatever changes the table *there* — an update batch
committed through ``EmbeddingUpdateEngine.apply_update``, or a
``repack_ranks`` through ``LayoutMigrator.on_block_reclaimed`` — must be
invisible to page A's rows and visible to page B's: the result holds the
old value for the first and the new value for the second.

The engine may defer the numeric work of a translated page, so this pins
that the deferral never crosses a commit or a re-pack.
"""

from __future__ import annotations

import numpy as np

from repro.driver.sync import sync_read
from repro.embedding.placement import HeatTracker, LayoutMigrator
from repro.models.runner import BackendKind
from repro.serving import EmbeddingUpdateEngine, make_model_updatable

from ..serving.conftest import build_server, toy_model


def ndp_server(heat=None):
    """A one-table NDP server; returns ``(server, model, table)``."""
    model = toy_model(name="instant", num_tables=1, seed=5)
    make_model_updatable(model)
    if heat is not None:
        for table in model.tables.values():
            table.set_heat(heat(table.spec.rows))
    server = build_server(model, kind=BackendKind.NDP)
    (name,) = model.tables
    table = server.workers[model.name][0].stage.backends[name].table
    return server, model, table


def run_torn_op(server, table, rank_a, rank_b, between):
    """SLS over the rows at ``rank_a`` / ``rank_b`` (one bag each), calling
    ``between()`` after page A translated and before page B did."""
    system = server.system
    device = table.device
    engine = device.ndp
    rpp = table.rows_per_page
    page_a, page_b = rank_a // rpp, rank_b // rpp
    assert page_a != page_b
    lbas_per_page = device.ftl.lbas_per_page
    # Page A into the FTL page cache: its NDP fetch is a peek hit.
    cpl = sync_read(
        system.sim,
        system.driver_for(device),
        table.base_lba + page_a * lbas_per_page,
        lbas_per_page,
    )
    assert cpl.ok
    bags = [table.external_ids(np.array([rank_a])), table.external_ids(np.array([rank_b]))]
    box = []
    system.session_for(device).sls(
        table.make_sls_config(bags), lambda payload, _timing: box.append(payload)
    )

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


def test_update_commit_between_two_translates():
    server, model, table = ndp_server()
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


def test_repack_between_two_translates():
    # Load-time heat descending by id: a FrequencyLayout that starts as
    # the identity.  The tracker says the opposite, so re-packing pages
    # 0 and 1 reverses their rows.
    server, _model, table = ndp_server(heat=lambda rows: np.arange(rows, 0, -1.0))
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
