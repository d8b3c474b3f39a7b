"""Every paper claim in ``repro.experiments.claims`` on the results
tier-1 runs (``tier1``): one case per claim, under its id."""

import pytest

from repro.experiments.claims import CLAIMS, RUNS, check, evaluate
from repro.experiments.common import ExperimentResult

from .tier1 import SLOW


def _case(claim):
    slow = pytest.mark.slow if claim.source in SLOW else ()
    return pytest.param(claim, id=claim.id, marks=slow)


@pytest.mark.parametrize("claim", [_case(c) for c in CLAIMS])
def test_claim_holds(claim, results):
    verdict = evaluate(claim, results(claim.source))
    assert verdict.passed, str(verdict)


def test_claim_ids_are_unique_and_every_source_runs():
    assert len({c.id for c in CLAIMS}) == len(CLAIMS)
    assert {c.source for c in CLAIMS} == set(RUNS)


@pytest.mark.parametrize("claim", CLAIMS, ids=[c.id for c in CLAIMS])
def test_a_claim_over_no_rows_fails(claim):
    verdict = evaluate(claim, ExperimentResult(claim.source, "empty", rows=[]))
    assert not verdict.passed and verdict.values == ()


@pytest.mark.parametrize(
    "claim_id, row",
    [
        ("fig10.baseline_competitive_k0", {"K": 1, "speedup_cache": 1.0}),
        ("fig5.ssd_slowdown", {"batch": 1, "slowdown": 500.0}),
        ("fig8.ndp_wins_strided", {"pattern": "SEQ", "ndp_speedup": 3.0}),
        ("fig8.baseline_wins_sequential", {"pattern": "STR", "ndp_speedup": 0.5}),
        ("fig4.reuse_capture_16mb", {"cache_mb": 4, "reuse_capture": 0.9}),
        ("fig6.mlp_near_dram", {"model": "rm1", "slowdown": 1.0}),
        ("fig9.embedding_accelerated", {"model": "ncf", "ndp_speedup": 3.0}),
    ],
)
def test_a_claim_whose_selection_is_empty_fails(claim_id, row):
    """Rows present, none of them the ones the claim selects: a loop
    asserting over the selection would pass without checking anything."""
    claim = next(c for c in CLAIMS if c.id == claim_id)
    result = ExperimentResult(claim.source, "unselected", rows=[row])
    assert not evaluate(claim, result).passed
    with pytest.raises(AssertionError, match=claim_id):
        check(result)


def test_check_refuses_a_result_no_claim_reads():
    with pytest.raises(KeyError):
        check(ExperimentResult("table1", "no claims", rows=[{"x": 1}]))


@pytest.mark.slow
def test_fig6_validates_every_model_it_ran(results):
    # run() raises if SSD outputs diverge from DRAM; reaching here with
    # rows present means the check passed for every model.
    assert len(results("fig6").rows) == 5
