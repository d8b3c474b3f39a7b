"""``required_capacity_pages`` sizes a device its tables can be attached to.

``Ftl.preload_region`` reserves whole blocks on ``min(dies, pages)`` dies
per table and every table starts on an SLBA-aligned slot, so a count of
table pages alone undercounts many small tables.  The rule is the larger
of the page count and what preloading reserves — and a model the page
count alone already fitted keeps its geometry.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embedding.spec import Layout
from repro.ftl.blocks import OutOfSpaceError
from repro.host.system import build_system
from repro.models.dlrm import DlrmConfig, DlrmModel
from repro.models.runner import required_capacity_pages
from repro.ssd.presets import cosmos_plus_config


def model(num_tables: int, rows: int, packed: bool) -> DlrmModel:
    return DlrmModel(
        DlrmConfig(
            name="m", dense_in=4, bottom_mlp=(4,), top_mlp=(4,),
            num_tables=num_tables, table_rows=rows, dim=8, lookups=1,
            layout=Layout.PACKED if packed else Layout.ONE_PER_PAGE,
        )
    )


def attach_all(m: DlrmModel, capacity_pages: int) -> None:
    system = build_system(min_capacity_pages=capacity_pages)
    for table in m.tables.values():
        table.attach(system.device)


def blocks_per_die(capacity_pages: int) -> int:
    return cosmos_plus_config(min_capacity_pages=capacity_pages).geometry.blocks_per_die


@settings(max_examples=30, deadline=None)
@given(
    num_tables=st.integers(1, 48),
    rows=st.one_of(st.integers(1, 64), st.integers(65, 20_000)),
    packed=st.booleans(),
)
def test_attach_never_runs_out_of_blocks(num_tables, rows, packed):
    m = model(num_tables, rows, packed)
    attach_all(m, required_capacity_pages(m))


@settings(max_examples=30, deadline=None)
@given(num_tables=st.integers(1, 24), rows=st.integers(1, 20_000))
def test_a_model_the_page_count_fitted_keeps_its_geometry(num_tables, rows):
    m = model(num_tables, rows, packed=False)
    page_rule = int(sum(f.spec.table_pages(16 * 1024) for f in m.features) * 1.3) + 64 * 1024
    try:
        attach_all(model(num_tables, rows, packed=False), page_rule)
    except (OutOfSpaceError, ValueError):
        return
    assert blocks_per_die(required_capacity_pages(m)) == blocks_per_die(page_rule)


def test_twenty_small_tables_need_more_than_the_geometry_floor():
    m = model(20, 256, packed=False)
    assert blocks_per_die(required_capacity_pages(m)) == 20  # 32 blocks per table
    assert blocks_per_die(required_capacity_pages(model(16, 256, packed=False))) == 16
    attach_all(m, required_capacity_pages(m))
