"""A finished SLS op is freed by reference counting alone.

Regression: ``_process_config`` used to define ``run_chunk`` whose own
continuation lambda named it, so every op left its entry, config (pair
arrays), scratchpad and closures in a cycle that only CPython's cyclic
collector could free.
"""

import gc
import weakref

import numpy as np

from ..conftest import random_bags
from .test_engine import make_stack


def test_entry_is_dead_after_its_result_read_with_the_collector_off():
    system, table = make_stack()
    engine = system.device.ndp
    bags = random_bags(np.random.default_rng(3), 2048, n_bags=6, bag_size=5)
    results = []
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        system.ndp_session.sls(
            table.make_sls_config(bags), lambda payload, _timing: results.append(payload)
        )
        system.sim.run_until(lambda: bool(engine.entries))
        (entry,) = engine.entries.values()
        admitted = weakref.ref(entry)
        del entry
        system.sim.run_until(lambda: bool(results))
        system.sim.run()
        assert np.allclose(results[0].values, table.ref_sls(bags), rtol=1e-5, atol=1e-6)
        assert not engine.entries
        assert admitted() is None
    finally:
        if enabled:
            gc.enable()
