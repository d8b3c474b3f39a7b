"""An NDP op's values and instants, pinned bit for bit.

A stream of ops shaped like ``ndp_serve``'s (two bags of eight skewed
ids on one-row pages, 16-wide float32 rows) runs through the session,
driver, controller and engine, many ops in flight at once, with the
SSD-side embedding cache off and on.  Each op's scratchpad is hashed as
``float.hex`` of every element, in op order, and each op's host-side
timing and Figure 8 breakdown the same way.  The digests were recorded
on the per-op numpy engine; a rewrite of the op's host work must
reproduce them exactly.  The float32 sums depend on the order in which
an op's pages accumulate into one result, so a gather that took two
pages in another order fails here.
"""

from __future__ import annotations

import hashlib
from functools import partial

import numpy as np
import pytest

from repro.core.engine import NdpEngineConfig

from .test_engine import make_stack

ROWS = 8192
OPS = 240
GAP_S = 300e-6         # every op shares the engine with others, up to seven at once
SEED = 29

# sha256 of the scratchpads (values) and of the timings and breakdowns
# (instants), per embedding-cache size.
DIGESTS = {
    0: (
        "7dc018c513e4f0dd32061d8bb22e0de2456da70b32a2d10997a1e68797d2b8d9",
        "23039d68f6db7479a63a71d73dacf6b3a5652e8efe46afcf47ce6cb1c641f584",
    ),
    4096: (
        "d4b4dff67a52d601dbdea182853bd5a0eeebc27d1220b2ec9bb4d6a75d1fd9f2",
        "81dd239a94b0f8f9364684dc1a88ca9655084aa28381a18d85a5a6db7a957d13",
    ),
}


def _hex(values) -> str:
    return " ".join(float(v).hex() for v in values)


def run_stream(cache_slots: int) -> tuple[str, str]:
    system, table = make_stack(
        NdpEngineConfig(embcache_slots=cache_slots, queue_when_full=True), rows=ROWS
    )
    rng = np.random.default_rng(SEED)
    results = {}

    def record(i, payload, timing) -> None:
        results[i] = (payload, timing)

    for i in range(OPS):
        # Skewed towards low ids: repeats within a bag and across ops.
        bags = [(ROWS * rng.random(8) ** 3).astype(np.int64) for _ in range(2)]
        config = table.make_sls_config(bags)
        system.sim.schedule(i * GAP_S, partial(system.ndp_session.sls, config, partial(record, i)))
    system.sim.run()
    assert len(results) == OPS
    values, instants = hashlib.sha256(), hashlib.sha256()
    for i in range(OPS):
        payload, timing = results[i]
        values.update(_hex(payload.values.ravel().tolist()).encode())
        components = payload.breakdown.components
        instants.update(_hex([timing.submit_time, timing.config_done_time, timing.result_time]).encode())
        instants.update(_hex([components[k] for k in sorted(components)]).encode())
        instants.update(repr((payload.flash_pages_read, payload.page_cache_hits,
                              payload.emb_cache_hits)).encode())
    instants.update(_hex([system.sim.now]).encode() + repr(system.sim.event_count).encode())
    return values.hexdigest(), instants.hexdigest()


@pytest.mark.parametrize("cache_slots", sorted(DIGESTS))
def test_a_stream_of_ops_gives_the_pinned_values_and_instants(cache_slots):
    values, instants = run_stream(cache_slots)
    want_values, want_instants = DIGESTS[cache_slots]
    assert values == want_values
    assert instants == want_instants
