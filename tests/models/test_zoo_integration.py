"""Zoo-wide integration: every benchmark model produces identical outputs
on DRAM, baseline-SSD and NDP backends (small batches; marked slow)."""

import dataclasses

import numpy as np
import pytest

from repro.experiments.common import figure_run, figure_spec, stage_means
from repro.models import BackendKind, RunnerConfig, build_model
from repro.models.zoo import MODEL_NAMES

pytestmark = pytest.mark.slow

SMALL_ROWS = 8192  # shrink tables so rm2 stays test-sized


def run_on(kind, name, batches, compute_outputs=True):
    spec = figure_spec(name, batches, RunnerConfig(kind=kind))
    spec = dataclasses.replace(spec, compute_outputs=compute_outputs)
    return figure_run(spec, build_model(name, seed=1, table_rows=SMALL_ROWS))


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_backend_equivalence(name):
    rng = np.random.default_rng(0)
    batches = [build_model(name, seed=1, table_rows=SMALL_ROWS).sample_batch(rng, 2)]
    outputs = {kind: run_on(kind, name, batches)[1][0].output for kind in BackendKind}
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
    lat = {
        kind: stage_means(*run_on(kind, name, batches, compute_outputs=False))[0]
        for kind in BackendKind
    }
    assert lat[BackendKind.DRAM] <= lat[BackendKind.NDP]
    assert lat[BackendKind.NDP] <= lat[BackendKind.SSD] * 1.6  # NDP ~ at worst close
