"""Ftl.read of several pages vs the frozen per-page reference, randomized.

Two identically-built systems run the same randomized multi-page read
sequences — mixing mapped, unmapped, cached and duplicate pages, plus
pages rewritten through the IO path — one through ``Ftl.read`` (``tests/ftl/host_read.py``),
one through the per-page cascade kept in
``tests/ftl/reference_read_pages.py``.  Completion times, contents,
and every FTL/flash/page-cache counter must match exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.embedding.spec import Layout, TableSpec
from repro.embedding.table import EmbeddingTable, TablePageContent
from repro.flash.reliability import ReadRetryModel, ReliabilityConfig
from repro.host.system import build_system
from repro.nvme.payload import page_content_to_bytes

from ..ftl.host_read import read_pages
from ..ftl.reference_read_pages import read_pages_scalar


def build(page_cache_pages=64):
    system = build_system(
        min_capacity_pages=1 << 16, page_cache_pages=page_cache_pages
    )
    table = EmbeddingTable(
        TableSpec(name="t", rows=4096, dim=16, layout=Layout.PACKED)
    )
    table.attach(system.device)
    return system, table


def read_pages_sync(system, lpns, reference=False):
    done = []
    if reference:
        read_pages_scalar(system.device.ftl, list(lpns), done.append)
    else:
        read_pages(system.device.ftl, list(lpns), done.append)
    system.sim.run_until(lambda: bool(done))
    return system.sim.now, done[0]


def content_fingerprint(contents):
    out = []
    for c in contents:
        if c is None:
            out.append(None)
        elif isinstance(c, TablePageContent):
            out.append(("virtual", c.page_index))
        else:
            out.append(("raw", int(np.asarray(c).view(np.uint8).sum())))
    return out


def ftl_counters(system):
    ftl = system.device.ftl
    return (
        ftl.host_page_reads,
        ftl.flash_page_reads,
        ftl.page_cache.hits,
        ftl.page_cache.misses,
        ftl.page_cache.evictions,
        ftl.flash.total_reads(),
        tuple(ftl.flash.channel_load()),
    )


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("page_cache_pages", [64, 8])
def test_read_pages_equivalence(seed, page_cache_pages):
    sys_s, table_s = build(page_cache_pages)
    sys_v, table_v = build(page_cache_pages)
    ftl = sys_v.device.ftl
    base_lpn = table_v.base_lba // ftl.lbas_per_page
    n_pages = table_v.spec.table_pages(table_v.page_bytes)
    rng = np.random.default_rng(seed)
    for _ in range(12):
        size = int(rng.integers(2, 16))
        # +4 pushes some lpns past the table into unmapped space; repeats
        # and re-reads exercise the cache path.
        lpns = (base_lpn + rng.integers(0, n_pages + 4, size=size)).tolist()
        t_s, c_s = read_pages_sync(sys_s, lpns, reference=True)
        t_v, c_v = read_pages_sync(sys_v, lpns)
        assert t_s == t_v
        assert content_fingerprint(c_s) == content_fingerprint(c_v)
        assert ftl_counters(sys_s) == ftl_counters(sys_v)


def run_under_read_errors(seed, fail_p, page_cache_pages):
    """Ten random commands on a reference and a ``read_pages`` system with
    same-seed lossy flash, compared after each; returns the per-page
    system and each command's ``(lpns, fingerprint)``."""
    systems = []
    for _side in ("reference", "read_pages"):
        system, table = build(page_cache_pages=page_cache_pages)
        system.device.flash.reliability = ReadRetryModel(
            ReliabilityConfig(
                read_fail_probability=fail_p, max_read_retries=3, seed=77
            )
        )
        systems.append((system, table))
    (sys_s, table_s), (sys_v, _table_v) = systems
    ftl = sys_s.device.ftl
    base_lpn = table_s.base_lba // ftl.lbas_per_page
    n_pages = table_s.spec.table_pages(table_s.page_bytes)
    rng = np.random.default_rng(seed)
    commands = []
    for _ in range(10):
        size = int(rng.integers(2, 16))
        lpns = (base_lpn + rng.integers(0, n_pages, size=size)).tolist()
        t_s, c_s = read_pages_sync(sys_s, lpns, reference=True)
        t_v, c_v = read_pages_sync(sys_v, lpns)
        assert t_s == t_v
        prints = content_fingerprint(c_s)
        assert prints == content_fingerprint(c_v)
        commands.append((lpns, prints))
        assert ftl_counters(sys_s) == ftl_counters(sys_v)
        for a, b in (
            (sys_s.device.flash.reliability, sys_v.device.flash.reliability),
        ):
            assert a.reads == b.reads
            assert a.retries == b.retries
            assert a.uncorrectable == b.uncorrectable
        assert (
            sys_s.device.flash.uncorrectable_reads
            == sys_v.device.flash.uncorrectable_reads
        )
    return sys_s, commands


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("fail_p", [0.05, 0.5])
def test_read_pages_equivalence_under_read_errors(seed, fail_p):
    """Retry latency and uncorrectable losses match the reference.

    With a lossy reliability model, each page read draws retries (extra
    cmd+tR holds on the die) or gives up past the budget (content None).
    ``read_pages`` must consume the reliability RNG stream in the same
    page order as the reference, so with same-seed models both
    sides produce identical completion times, None patterns, and retry /
    uncorrectable counters.
    """
    # No page cache: every read reaches the flash, so the reliability
    # stream is exercised on each page on both sides.
    sys_s, commands = run_under_read_errors(seed, fail_p, page_cache_pages=0)
    # The equivalence must have been exercised on actual failures.
    assert sys_s.device.flash.reliability.retries > 0
    if fail_p >= 0.5:
        assert any(p is None for _lpns, prints in commands for p in prints)
        assert sys_s.device.flash.uncorrectable_reads > 0


@pytest.mark.parametrize("seed", range(3))
def test_read_pages_equivalence_when_a_lost_page_is_asked_for_again(seed):
    """A page the flash gave up on must not enter the page cache: a later
    command naming it goes back to the flash, and draws again, on both
    sides (the cache holds the whole table, so every page read is a hit)."""
    _sys_s, commands = run_under_read_errors(seed, fail_p=0.5, page_cache_pages=64)
    lost = set()
    asked_again = False
    for lpns, prints in commands:
        asked_again = asked_again or bool(lost.intersection(lpns))
        lost.update(lpn for lpn, p in zip(lpns, prints) if p is None)
    assert asked_again


def test_read_pages_after_io_write():
    """Pages rewritten through the IO path return raw buffers on both sides."""
    results = {}
    for reference in (True, False):
        system, table = build()
        ftl = system.device.ftl
        base_lpn = table.base_lba // ftl.lbas_per_page
        lbas_per_page = ftl.lbas_per_page
        payload = np.arange(table.page_bytes, dtype=np.uint8)
        done = []
        system.driver.write(
            table.base_lba + 2 * lbas_per_page, lbas_per_page, payload, done.append
        )
        system.sim.run_until(lambda: bool(done))
        t, contents = read_pages_sync(
            system, [base_lpn + 1, base_lpn + 2, base_lpn + 3], reference
        )
        raw = page_content_to_bytes(contents[1], table.page_bytes)
        results[reference] = (t, content_fingerprint(contents), raw.sum())
    assert results[True] == results[False]
