"""The paper's claims, each stated once.

A :class:`Claim` names the experiment result it reads (the id's prefix),
the paper's value as the repo quotes it, the quantity it measures on the
result and the band every measured value must lie in.  The figure
benchmarks end with :func:`check`, tier-1 runs every claim
(``tests/experiments/test_claims.py``) and :func:`run` (``python -m
repro.experiments claims [--full]``) prints the fidelity table.

A claim whose selection is empty fails.  ``x > y`` is measured as
``x - y > 0`` (exact in floating point), ``x > k * y`` as ``x / y > k``,
and ``a == approx(b, rel=r)`` keeps pytest's rule as ``|a - b| / |b| <= r``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Tuple

from ..models.zoo import EMBEDDING_DOMINATED, MLP_DOMINATED
from . import ablations, calibration, ext_multi_ssd, fig3_reuse, fig4_locality, fig5_sls
from . import fig6_end_to_end, fig8_breakdown, fig9_naive_ndp, fig10_caching
from . import fig11_sensitivity
from .common import ExperimentResult, format_cell

__all__ = ["Claim", "Verdict", "CLAIMS", "RUNS", "evaluate", "check", "run"]

Row = Dict[str, object]
Measure = Callable[[ExperimentResult], List[float]]
_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
        "==": operator.eq}


@dataclass(frozen=True)
class Claim:
    id: str          # "<experiment>.<name>"
    paper: str       # the paper's value, as the repo quotes it
    quantity: str    # what ``measure`` reads off the result
    band: str        # e.g. "< 1000" or "> 0.8, < 1.3"
    measure: Measure

    @property
    def source(self) -> str:
        return self.id.split(".")[0]

    def holds(self, value: float) -> bool:
        bounds = (part.split() for part in self.band.split(","))
        return all(_OPS[op](value, float(bound)) for op, bound in bounds)


class Verdict(NamedTuple):
    claim: Claim
    values: Tuple[float, ...]    # () when the selection is empty
    passed: bool

    @property
    def model(self) -> str:
        if not self.values:
            return "no value"
        lo, hi = min(self.values), max(self.values)
        return format_cell(lo) if lo == hi else f"{format_cell(lo)}..{format_cell(hi)}"

    def __str__(self) -> str:
        c = self.claim
        return (f"{c.id}: {c.quantity} = {self.model}, band {c.band}: "
                f"{'pass' if self.passed else 'FAIL'}")


def rows(result: ExperimentResult, where=None) -> List[Row]:
    """The rows ``where`` selects; ``LookupError`` when there are none."""
    selected = [r for r in result.rows if where is None or where(r)]
    if not selected:
        raise LookupError(f"{result.experiment}: no row selected")
    return selected


def each(column: str, where=None) -> Measure:
    return lambda result: [float(r[column]) for r in rows(result, where)]


def steps(values: List[float]) -> List[float]:
    """Consecutive differences: all ``>= 0`` iff ``values`` ascends."""
    return [b - a for a, b in zip(values, values[1:])]


def rel_gap(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _by(result, key: str, column: str) -> Dict[int, float]:
    """``column`` by sweep point ``int(row[key])``."""
    return {int(r[key]): float(r[column]) for r in rows(result)}


def _ends(result, key: str, column: str) -> Tuple[float, float]:
    """``column`` at the smallest and the largest sweep point."""
    by_key = _by(result, key, column)
    return by_key[min(by_key)], by_key[max(by_key)]


def _fig4_steps(result) -> List[float]:
    by_table: Dict[object, list] = {}
    for r in rows(result):
        by_table.setdefault(r["table"], []).append((r["cache_mb"], r["hit_rate"]))
    return [s for e in by_table.values() for s in steps([float(h) for _mb, h in sorted(e)])]


def _fig8_share(r: Row) -> float:
    parts = ("config_write_ms", "config_process_ms", "translation_ms", "flash_read_ms")
    return float(r["translation_ms"]) / sum(float(r[p]) for p in parts)


def _fig8_page_gap(result) -> List[float]:
    by_batch: Dict[object, Dict[object, int]] = {}
    for r in rows(result):
        by_batch.setdefault(r["batch"], {})[r["pattern"]] = r["flash_pages"]
    return [float(pages["STR"] - pages["SEQ"]) for pages in by_batch.values()]


def _fig11a_feature_drop(result) -> List[float]:
    fp32 = sorted((int(r["dim"]), float(r["ndp_speedup"]))
                  for r in rows(result, _is("dtype", "fp32")))
    return [fp32[0][1] - fp32[-1][1]]


def _fig11a_quant_gain(result) -> List[float]:
    dim = max(int(r["dim"]) for r in rows(result))

    def at(dtype):
        speedups = each("ndp_speedup", lambda r: r["dtype"] == dtype and r["dim"] == dim)
        return speedups(result)[0]

    return [at("int8") - at("fp32")]


def _is(key: str, value):
    return lambda r: r[key] == value


def _model_in(names):
    return lambda r: r["model"] in names


CLAIMS: Tuple[Claim, ...] = (
    Claim("fig3.pages_for_30pct", "a few hundred pages capture 30% of reuses",
          "hottest pages covering 30%", "< 1000", each("pages_for_30pct")),
    Claim("fig3.pages_for_50pct", "a few thousand pages extend reuse over 50%",
          "hottest pages covering 50%", "< 10000", each("pages_for_50pct")),
    Claim("fig3.coverage_ordered", "30% / 50% / 80% coverage",
          "pages for 50% - 30%, 80% - 50%", "> 0",
          lambda res: [float(s) for r in rows(res)
                       for s in steps([r[f"pages_for_{p}pct"] for p in (30, 50, 80)])]),
    Claim("fig3.larger_pages_fewer_distinct", "256B / 1KB / 4KB pages",
          "distinct pages, one page size - the next", "> 0",
          lambda res: [(d := each("distinct_pages")(res))[0] - d[1], d[1] - d[2]]),
    Claim("fig4.low_hit_rate", "under 10%", "lowest hit rate", "< 0.10",
          lambda res: [min(each("hit_rate")(res))]),
    Claim("fig4.high_hit_rate", "over 90%", "highest hit rate", "> 0.90",
          lambda res: [max(each("hit_rate")(res))]),
    Claim("fig4.hit_rate_grows_with_capacity", "hit rate grows with capacity",
          "hit-rate step to the next capacity", ">= -1e-9", _fig4_steps),
    Claim("fig4.reuse_capture_16mb", "a 16MB cache captures >=50% of reuses",
          "reuse captured, 16MB and up", ">= 0.4",
          each("reuse_capture", lambda r: r["cache_mb"] >= 16)),
    Claim("fig5.ssd_slowdown", "~3 orders of magnitude slower", "SSD / DRAM, batch 8 and up",
          "> 100", each("slowdown", lambda r: r["batch"] >= 8)),
    Claim("fig5.latency_grows_with_batch", "SLS latency across batch sizes",
          "SSD ms step to the next batch", ">= 0", lambda res: steps(each("ssd_ms")(res))),
    Claim("fig6.mlp_near_dram", "1.01-1.09x", "SSD / DRAM latency, MLP-dominated", "< 1.5",
          each("slowdown", _model_in(MLP_DOMINATED))),
    Claim("fig6.embedding_degrades", "orders of magnitude",
          "SSD / DRAM latency, embedding-dominated", "> 50",
          each("slowdown", _model_in(EMBEDDING_DOMINATED))),
    Claim("fig8.ndp_wins_strided", "up to ~4x", "NDP speedup, STR", "> 2.5",
          each("ndp_speedup", _is("pattern", "STR"))),
    Claim("fig8.baseline_wins_sequential", "NDP loses on SEQ", "NDP speedup, SEQ", "< 1.0",
          each("ndp_speedup", _is("pattern", "SEQ"))),
    Claim("fig8.translation_dominates", "Translation dominates", "translation share, STR",
          "> 0.35",
          lambda res: [_fig8_share(r) for r in rows(res, _is("pattern", "STR"))]),
    Claim("fig8.seq_touches_fewer_pages", "SEQ: many vectors per flash page",
          "STR - SEQ flash pages, each batch", "> 0", _fig8_page_gap),
    Claim("fig9.mlp_unaffected", "no observable change", "NDP speedup, MLP-dominated",
          "> 0.8, < 1.3", each("ndp_speedup", _model_in(MLP_DOMINATED))),
    Claim("fig9.embedding_accelerated", "up to several-x",
          "NDP speedup, embedding-dominated", "> 2.0",
          each("ndp_speedup", _model_in(EMBEDDING_DOMINATED))),
    Claim("fig10.baseline_competitive_k0", "the baseline wins at high locality (K=0)",
          "RecSSD+cache speedup, K=0", "< 1.4", each("speedup_cache", _is("K", 0))),
    Claim("fig10.recssd_wins_k2", "RecSSD wins at low locality (K=2)",
          "RecSSD+cache speedup, K=2", "> 1.5", each("speedup_cache", _is("K", 2))),
    Claim("fig10.partition_keeps_gain", "partitioning recovers host-DRAM benefits",
          "partitioned / cache-only speedup", ">= 0.9",
          lambda res: [float(r["speedup_part"]) / float(r["speedup_cache"])
                       for r in rows(res)]),
    Claim("fig10.lru_hit_follows_locality", "K = 0/1/2 -> 13%/54%/72% unique accesses",
          "lowest K=0 - highest K=2 LRU hit rate", "> 0",
          lambda res: [min(each("lru_hit", _is("K", 0))(res))
                       - max(each("lru_hit", _is("K", 2))(res))]),
    Claim("fig10.lru_hit_k0", "its LRU reaches ~84% hits", "|LRU hit rate - 0.84|, K=0",
          "<= 0.10", lambda res: [abs(x - 0.84) for x in each("lru_hit", _is("K", 0))(res)]),
    Claim("fig10.partition_2x", "~2x at low locality", "best partitioned speedup", ">= 2.0",
          lambda res: [max(each("speedup_part")(res))]),
    Claim("fig11a.feature_size", "relative NDP performance decreases",
          "fp32 NDP speedup, smallest - largest dim", "> 0", _fig11a_feature_drop),
    Claim("fig11a.quantization", "quantization shrinks a vector's share of a page",
          "int8 - fp32 NDP speedup, largest dim", "> 0", _fig11a_quant_gain),
    Claim("fig11b.ndp_speedup", "indices amortize the per-operation overhead",
          "NDP speedup, each index and table count", "> 1.5", each("ndp_speedup")),
    Claim("calibration.sequential_read", "just under 1.4 GB/s", "sequential read (GB/s)",
          "> 0.9, < 1.45", each("measured", _is("metric", "sequential_read_GB_s"))),
    Claim("calibration.random_read_iops", "~10K (Sec 3.2)", "whole-stack random read IOPS",
          "> 8000, < 20000", each("measured", _is("metric", "random_read_iops"))),
    Claim("calibration.page_read_latency", "10s-100s of us", "unloaded page read (us)",
          "> 20, < 500", each("measured", _is("metric", "page_read_latency_us"))),
    Claim("ablation_translation.monotone", "faster SSD microprocessors or custom logic",
          "NDP speedup gain, next faster translation", ">= 0",
          lambda res: steps(each("ndp_speedup")(res)[::-1])),
    Claim("ablation_translation.custom_logic", "Translation significantly reduced",
          "NDP speedup, custom logic / slowest core", "> 1.3",
          lambda res: [(s := each("ndp_speedup")(res))[0] / s[-1]]),
    Claim("ablation_channels.baseline_flat", "the baseline (command-bound) barely moves",
          "|base ms, fewest - most channels| / most", "<= 0.15",
          lambda res: [rel_gap(*_ends(res, "value", "base_ms"))]),
    Claim("ablation_channels.ndp_scales", "NDP's advantage scales with channels",
          "NDP ms, fewest / most channels", "> 2",
          lambda res: [operator.truediv(*_ends(res, "value", "ndp_ms"))]),
    Claim("ablation_embcache.off_no_hits", "a locality trace, no SSD-side cache",
          "SSD cache hit rate, 0 slots", "== 0",
          lambda res: [_by(res, "value", "hit_rate")[0]]),
    Claim("ablation_embcache.hits_under_locality", "SSD-side cache under a locality trace",
          "SSD cache hit rate, most slots", "> 0.2",
          lambda res: [_ends(res, "value", "hit_rate")[1]]),
    Claim("ablation_window.saturates", "tiny windows starve flash",
          "NDP ms, smallest / largest window", "> 1.5",
          lambda res: [(ms := each("ndp_ms")(res))[0] / ms[-1]]),
    Claim("ablation_window.converges", "large windows converge",
          "|NDP ms, second-largest - largest| / largest", "<= 0.25",
          lambda res: [rel_gap(*each("ndp_ms")(res)[-2:])]),
    Claim("ext_multi_ssd.latency_per_doubling", "NDP throughput scales with device count",
          "NDP ms, 2 / 1 and 4 / 2 devices", "< 0.7",
          lambda res: [(d := _by(res, "devices", "ndp_ms"))[2] / d[1], d[4] / d[2]]),
    Claim("ext_multi_ssd.ndp_advantage", "until host-side costs dominate",
          "NDP speedup, each device count", "> 2.5", each("ndp_speedup")),
)

# How ``run`` produces each result a claim reads.
RUNS: Dict[str, Callable[..., ExperimentResult]] = {
    "fig3": fig3_reuse.run,
    "fig4": fig4_locality.run,
    "fig5": fig5_sls.run,
    "fig6": fig6_end_to_end.run,
    "fig8": fig8_breakdown.run,
    "fig9": fig9_naive_ndp.run,
    "fig10": fig10_caching.run,
    "fig11a": fig11_sensitivity.run_feature_quant,
    "fig11b": fig11_sensitivity.run_indices_tables,
    "calibration": calibration.run,
    "ablation_translation": ablations.run_translation_cost,
    "ablation_channels": ablations.run_channel_scaling,
    "ablation_embcache": ablations.run_embcache_size,
    "ablation_window": ablations.run_inflight_window,
    "ext_multi_ssd": ext_multi_ssd.run,
}


def evaluate(claim: Claim, result: ExperimentResult) -> Verdict:
    """Measure ``claim`` on ``result``: it passes when it measured at
    least one value and every value lies in its band."""
    try:
        values = tuple(claim.measure(result))
    except LookupError:  # an empty selection or a missing sweep point
        values = ()
    return Verdict(claim, values, bool(values) and all(map(claim.holds, values)))


def _verdicts(result: ExperimentResult) -> List[Verdict]:
    return [evaluate(c, result) for c in CLAIMS if c.source == result.experiment]


def check(result: ExperimentResult) -> List[Verdict]:
    """Evaluate every claim that reads ``result``; ``AssertionError``
    naming each one that fails."""
    verdicts = _verdicts(result)
    if not verdicts:
        raise KeyError(f"no claim reads {result.experiment!r}")
    failed = [str(v) for v in verdicts if not v.passed]
    if failed:
        raise AssertionError("\n".join(failed))
    return verdicts


def run(fast: bool = True, seed: int = 0) -> ExperimentResult:
    """The fidelity table: each result a claim reads, run once."""
    results = (runner(fast=fast, seed=seed) for runner in RUNS.values())
    verdicts = [v for result in results for v in _verdicts(result)]
    return ExperimentResult(
        "claims",
        "Paper claims: the paper's value, the model's, the band it must lie in",
        [{"claim": v.claim.id, "paper": v.claim.paper, "model": v.model,
          "band": v.claim.band, "verdict": "pass" if v.passed else "FAIL"}
         for v in verdicts],
        notes=[f"{sum(v.passed for v in verdicts)}/{len(verdicts)} claims hold"],
    )
