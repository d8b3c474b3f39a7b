"""Zoo-wide integration: every benchmark model produces identical outputs
on DRAM, baseline-SSD and NDP backends (small batches; marked slow)."""

import numpy as np
import pytest

from repro.models import BackendKind, RunnerConfig, build_model
from repro.models.zoo import MODEL_NAMES
from repro.serving.runner import ModelRunner

pytestmark = pytest.mark.slow

SMALL_ROWS = 8192  # shrink tables so rm2 stays test-sized


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_backend_equivalence(name):
    rng = np.random.default_rng(0)
    batches = [build_model(name, seed=1, table_rows=SMALL_ROWS).sample_batch(rng, 2)]
    outputs = {}
    for kind in BackendKind:
        runner = ModelRunner(
            build_model(name, seed=1, table_rows=SMALL_ROWS),
            RunnerConfig(kind=kind),
        )
        outputs[kind] = runner.run_batches(batches).outputs[0]
    assert np.allclose(
        outputs[BackendKind.DRAM], outputs[BackendKind.SSD], rtol=1e-4, atol=1e-5
    )
    assert np.allclose(
        outputs[BackendKind.DRAM], outputs[BackendKind.NDP], rtol=1e-4, atol=1e-5
    )


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_latency_ordering_holds_per_model(name):
    """DRAM is never slower than NDP, NDP never slower than baseline SSD
    (for the embedding stage; pooled across the model's tables)."""
    rng = np.random.default_rng(1)
    batches = [build_model(name, seed=1, table_rows=SMALL_ROWS).sample_batch(rng, 4)]
    lat = {}
    for kind in BackendKind:
        runner = ModelRunner(
            build_model(name, seed=1, table_rows=SMALL_ROWS),
            RunnerConfig(kind=kind, compute_outputs=False),
        )
        lat[kind] = runner.run_batches(batches).mean_emb_latency
    assert lat[BackendKind.DRAM] <= lat[BackendKind.NDP]
    assert lat[BackendKind.NDP] <= lat[BackendKind.SSD] * 1.6  # NDP ~ at worst close
