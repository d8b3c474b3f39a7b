"""Trace generators: the paper's K calibration, Zipf skew, analytics."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.traces.analysis import (
    lru_page_hit_rate,
    reuse_cdf,
    rows_to_pages,
    stack_distances,
    unique_fraction,
)
from repro.traces.locality import LocalityTraceGenerator, unique_fraction_for_k
from repro.traces.powerlaw import ZipfTraceGenerator


class TestLocalityCalibration:
    """Section 5: K = 0, 1, 2 -> 13%, 54%, 72% unique accesses."""

    @pytest.mark.parametrize(
        "k,target", [(0, 0.13), (1, 0.54), (2, 0.72)]
    )
    def test_unique_fraction(self, k, target):
        gen = LocalityTraceGenerator(table_rows=1 << 20, k=k, seed=1)
        trace = gen.generate(20_000)
        measured = unique_fraction(trace)
        assert measured == pytest.approx(target, abs=0.05)

    def test_target_function(self):
        assert unique_fraction_for_k(0) == pytest.approx(0.13, abs=0.01)
        assert unique_fraction_for_k(1) == pytest.approx(0.54, abs=0.03)
        assert unique_fraction_for_k(2) == pytest.approx(0.76, abs=0.05)

    def test_higher_k_less_locality(self):
        fractions = []
        for k in (0, 1, 2):
            gen = LocalityTraceGenerator(table_rows=1 << 18, k=k, seed=2)
            fractions.append(unique_fraction(gen.generate(8000)))
        assert fractions[0] < fractions[1] < fractions[2]

    def test_lru_hit_rates_match_figure_10(self):
        """84%/44%/28% host-LRU hits for K=0/1/2 (2K entries, 16-way)."""
        targets = {0: 0.84, 1: 0.44, 2: 0.28}
        for k, target in targets.items():
            gen = LocalityTraceGenerator(table_rows=1 << 20, k=k, seed=3)
            trace = gen.generate(20_000)
            hit = lru_page_hit_rate(trace, capacity_pages=2048, ways=16)
            assert hit == pytest.approx(target, abs=0.08), f"K={k}"


class TestLocalityMechanics:
    def test_deterministic_by_seed(self):
        a = LocalityTraceGenerator(1000, k=1, seed=9).generate(500)
        b = LocalityTraceGenerator(1000, k=1, seed=9).generate(500)
        assert np.array_equal(a, b)

    def test_rows_in_range(self):
        gen = LocalityTraceGenerator(100, k=1, seed=0)
        trace = gen.generate(1000)
        assert trace.min() >= 0 and trace.max() < 100

    def test_bounded_universe(self):
        gen = LocalityTraceGenerator(1 << 20, k=2, seed=0, universe=64)
        trace = gen.generate(5000)
        assert np.unique(trace).size <= 64

    def test_generate_bags_layout(self):
        gen = LocalityTraceGenerator(1000, k=0, seed=0)
        bags = gen.generate_bags(n_samples=4, lookups_per_sample=7)
        assert len(bags) == 4
        assert all(b.size == 7 for b in bags)

    def test_invalid_params(self):
        with pytest.raises(ValueError, match=r"LocalityTraceGenerator\.table_rows must be"):
            LocalityTraceGenerator(0, k=0)
        with pytest.raises(ValueError, match=r"LocalityTraceGenerator\.k must be"):
            LocalityTraceGenerator(10, k=-1)
        with pytest.raises(ValueError):
            LocalityTraceGenerator(10, k=0, universe=11)

    def test_nan_k_is_refused(self):
        # A NaN K made every lookup fresh (unique fraction 1.0) silently.
        with pytest.raises(ValueError, match=r"unique_fraction_for_k\.k must be"):
            unique_fraction_for_k(float("nan"))
        with pytest.raises(ValueError, match=r"LocalityTraceGenerator\.k must be"):
            LocalityTraceGenerator(10, k=float("nan"))

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), 0.0, -1.0])
    def test_stack_scale_must_be_positive_and_finite(self, scale):
        # NaN / inf used to fail only at the first re-reference.
        with pytest.raises(ValueError, match=r"LocalityTraceGenerator\.stack_scale must be"):
            LocalityTraceGenerator(10, k=1, stack_scale=scale)


def _split_draws_equal_one_draw(make, a, b):
    """``generate(a)`` then ``generate(b)`` is ``generate(a + b)``: the
    contract a sampler drawn once for many batches rests on."""
    split, whole = make(), make()
    first, second = split.generate(a), split.generate(b)
    got = np.concatenate([first, second])
    assert got.dtype == np.int64 and first.size == a and second.size == b
    assert np.array_equal(got, whole.generate(a + b))


class TestStreams:
    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(1, 5000),
        k=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        universe=st.one_of(st.none(), st.integers(1, 64)),
        seed=st.integers(0, 2**16),
        a=st.integers(0, 300),
        b=st.integers(0, 300),
    )
    def test_locality_stream_splits(self, rows, k, universe, seed, a, b):
        universe = None if universe is None else min(universe, rows)
        _split_draws_equal_one_draw(
            lambda: LocalityTraceGenerator(
                rows, k=k, seed=seed, stack_scale=8.0, universe=universe
            ),
            a,
            b,
        )

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(1, 5000),
        alpha=st.floats(0.1, 2.0),
        seed=st.integers(0, 2**16),
        a=st.integers(0, 300),
        b=st.integers(0, 300),
    )
    def test_zipf_stream_splits(self, rows, alpha, seed, a, b):
        _split_draws_equal_one_draw(
            lambda: ZipfTraceGenerator(rows, alpha, seed=seed), a, b
        )


class TestZipf:
    def test_skew_concentrates_mass(self):
        gen = ZipfTraceGenerator(10_000, alpha=1.2, seed=0)
        trace = gen.generate(20_000)
        _ids, counts = np.unique(trace, return_counts=True)
        top = np.sort(counts)[::-1][:100].sum()
        assert top / trace.size > 0.4

    def test_higher_alpha_more_skew(self):
        def top1_share(alpha):
            gen = ZipfTraceGenerator(10_000, alpha=alpha, seed=1)
            trace = gen.generate(10_000)
            _ids, counts = np.unique(trace, return_counts=True)
            return counts.max() / trace.size

        assert top1_share(1.5) > top1_share(0.7)

    def test_deterministic(self):
        a = ZipfTraceGenerator(1000, 1.0, seed=4).generate(100)
        b = ZipfTraceGenerator(1000, 1.0, seed=4).generate(100)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan")])
    def test_rejects_alpha_that_is_not_positive(self, alpha):
        # A NaN alpha would draw the same row every time.
        with pytest.raises(ValueError, match=r"ZipfTraceGenerator\.alpha must be"):
            ZipfTraceGenerator(50, alpha, seed=0)

    def test_bounds(self):
        trace = ZipfTraceGenerator(50, 1.0, seed=0).generate(1000)
        assert trace.min() >= 0 and trace.max() < 50

    @pytest.mark.parametrize("rows, alpha", [(50, 1.0), (4096, 0.8), (1, 2.0)])
    def test_generate_is_the_clip_and_cast_it_replaced(self, rows, alpha):
        """An in-place ``np.minimum`` on the already-int64 ranks for
        ``np.clip(...)`` + ``.astype(np.int64)``: same draws, same ids."""
        ours = ZipfTraceGenerator(rows, alpha, seed=6)
        theirs = ZipfTraceGenerator(rows, alpha, seed=6)
        for n in (0, 1, 16, 1000):
            u = theirs._rng.random(n)
            ranks = np.searchsorted(theirs._cdf, u, side="left")
            want = theirs._perm[np.clip(ranks, 0, rows - 1)].astype(np.int64)
            got = ours.generate(n)
            assert got.dtype == np.int64 and np.array_equal(got, want)


class TestAnalysis:
    def test_unique_fraction_edges(self):
        assert unique_fraction(np.array([])) == 0.0
        assert unique_fraction(np.array([1, 1, 1])) == pytest.approx(1 / 3)
        assert unique_fraction(np.array([1, 2, 3])) == 1.0

    def test_rows_to_pages(self):
        pages = rows_to_pages(np.array([0, 1, 63, 64]), row_bytes=64, page_bytes=4096)
        assert list(pages) == [0, 0, 0, 1]
        with pytest.raises(ValueError):
            rows_to_pages(np.array([0]), row_bytes=128, page_bytes=64)

    def test_reuse_cdf_monotone_and_normalized(self):
        trace = np.array([0] * 10 + [1] * 5 + list(range(2, 12)))
        frac_pages, cum_hits = reuse_cdf(trace)
        assert cum_hits[-1] == pytest.approx(1.0)
        assert np.all(np.diff(cum_hits) >= 0)
        assert frac_pages[-1] == pytest.approx(1.0)

    def test_lru_hit_rate_extremes(self):
        same = np.zeros(100, dtype=np.int64)
        assert lru_page_hit_rate(same, 16) == pytest.approx(0.99)
        distinct = np.arange(100)
        assert lru_page_hit_rate(distinct, 16) == 0.0

    @given(trace=st.lists(st.integers(0, 8), min_size=1, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_stack_distances_vs_bruteforce(self, trace):
        got = stack_distances(trace)
        # Brute-force: distance = number of distinct items since last access.
        last_seen = {}
        for i, item in enumerate(trace):
            if item not in last_seen:
                assert got[i] == -1
            else:
                between = set(trace[last_seen[item] + 1 : i])
                between.discard(item)
                assert got[i] == len(between)
            last_seen[item] = i


class TestAnalysisEdgeCases:
    """Satellite sweep: empty/single traces and cache-geometry agreement."""

    def test_reuse_cdf_empty(self):
        frac, cum = reuse_cdf(np.zeros(0, dtype=np.int64))
        assert frac.size == 0 and cum.size == 0

    def test_reuse_cdf_single_element(self):
        frac, cum = reuse_cdf(np.array([42]))
        assert frac.tolist() == [1.0]
        assert cum.tolist() == [1.0]

    def test_stack_distances_empty_and_single(self):
        assert stack_distances([]) == []
        assert stack_distances([5]) == [-1]

    def test_lru_hit_rate_empty(self):
        assert lru_page_hit_rate(np.zeros(0, dtype=np.int64), 16) == 0.0

    def test_lru_hit_rate_non_multiple_capacity(self):
        """Regression: capacity=40 with 16 ways used to floor to 2 sets x
        16 ways = 32 entries, so a cyclic 40-page trace (which fits the
        nominal capacity) thrashed to a near-zero hit rate."""
        trace = np.tile(np.arange(40, dtype=np.int64), 6)
        hit = lru_page_hit_rate(trace, capacity_pages=40, ways=16)
        # First pass misses all 40 pages, the remaining 5 passes hit.
        assert hit >= 200 / 240 - 1e-9

    def test_lru_hit_rate_agrees_with_cache_counters(self):
        """lru_page_hit_rate must agree with SetAssociativeLru's own
        hit/miss accounting on a shared fixed-seed trace, including a
        capacity that is not a multiple of the way count."""
        from repro.embedding.caches import SetAssociativeLru

        gen = LocalityTraceGenerator(table_rows=4096, k=1, seed=11)
        trace = rows_to_pages(gen.generate(5000), row_bytes=256, page_bytes=4096)
        for capacity, ways in ((64, 16), (40, 16), (7, 4), (100, 16)):
            cache = SetAssociativeLru(capacity, ways=ways)
            marker = np.zeros(0)
            for page in trace:
                if cache.lookup(int(page)) is None:
                    cache.insert(int(page), marker)
            expected = cache.hits / (cache.hits + cache.misses)
            got = lru_page_hit_rate(trace, capacity, ways=ways)
            assert got == pytest.approx(expected), (capacity, ways)

    def test_row_frequencies(self):
        from repro.traces.analysis import row_frequencies

        heat = row_frequencies(np.array([0, 2, 2, 5]), num_rows=6)
        assert heat.tolist() == [1.0, 0.0, 2.0, 0.0, 0.0, 1.0]
        assert row_frequencies(np.zeros(0, dtype=np.int64), 3).tolist() == [
            0.0,
            0.0,
            0.0,
        ]
        with pytest.raises(ValueError):
            row_frequencies(np.array([6]), num_rows=6)


@pytest.mark.parametrize(
    "module", ["repro.traces", "repro.traces.powerlaw", "repro.traces.locality"]
)
def test_traces_import_first_in_a_fresh_interpreter(module):
    """``repro.traces`` imported before ``repro.embedding`` used to die in
    an import cycle (``traces.analysis`` -> ``embedding`` ->
    ``embedding.placement`` -> ``traces.analysis``)."""
    src = Path(repro.__file__).resolve().parent.parent
    subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
    )
