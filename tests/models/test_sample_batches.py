"""``sample_batches`` draws each sampler's stream once for ``n`` batches
and still gives what ``n`` calls of ``sample_batch`` give, array for array.

The models carry sequence features (``din`` / ``dien``: an 8-long
history bag per position beside a pooled candidate), and the sampler
dicts cover only some features, so the run's RNG interleaves the dense
draw with the uniform features' ids while the samplers' streams do not.
"""

import numpy as np
import pytest

from repro.core.bags import Bags, as_ids
from repro.models import Batch, DlrmConfig, DlrmModel, build_model
from repro.traces import LocalityTraceGenerator, ZipfTraceGenerator


def parent_sample_batch(model, rng, batch_size, samplers=None):
    """``RecModel.sample_batch`` before ``sample_batches`` existed,
    verbatim but for ``self`` and the deleted ``uniform_sampler``
    inlined: every draw per request, in feature order."""
    dense = rng.standard_normal((batch_size, model.dense_in)).astype(np.float32)
    bags = {}
    for feature in model.features:
        sampler = (samplers or {}).get(feature.name) or (
            lambda n, rows=feature.spec.rows: rng.integers(0, rows, size=n, dtype=np.int64)
        )
        n_ids = batch_size * feature.lookups
        rows = as_ids(sampler(n_ids))
        if rows.size != n_ids:
            raise ValueError(
                f"sampler for {feature.name!r} returned {rows.size} ids, "
                f"not the {n_ids} asked for"
            )
        bags[feature.name] = Bags.uniform(rows, batch_size * feature.bags_per_sample)
    return Batch(dense=dense, bags=bags, batch_size=batch_size)


def _dlrm():
    return DlrmModel(
        DlrmConfig(
            name="three",
            dense_in=4,
            bottom_mlp=(8, 4),
            top_mlp=(8, 4),
            num_tables=3,
            table_rows=512,
            dim=4,
            lookups=3,
        ),
        seed=2,
    )


def _samplers(model, kinds):
    """Fresh per-feature streams; ``None`` leaves a feature uniform."""
    samplers = {}
    for i, (feature, kind) in enumerate(zip(model.features, kinds)):
        rows = feature.spec.rows
        if kind == "zipf":
            samplers[feature.name] = ZipfTraceGenerator(rows, 0.9, seed=7 + i).generate
        elif kind == "locality":
            samplers[feature.name] = LocalityTraceGenerator(
                rows, k=1.0, seed=7 + i, stack_scale=8.0
            ).generate
    return samplers


CASES = [
    ("din", ("zipf", None)),            # sequence feature sampled, candidate uniform
    ("din", (None, "locality")),        # sequence feature uniform
    ("dien", ("locality", "zipf")),     # every feature sampled
    ("dien", (None, None)),             # none: the run's RNG alone
    ("dlrm", (None, "zipf", None)),     # a stream between two uniform draws
]


def _model(name):
    return _dlrm() if name == "dlrm" else build_model(name)


def _assert_same(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.batch_size == b.batch_size and a.user_id == b.user_id
        assert a.dense.dtype == b.dense.dtype and a.dense.tobytes() == b.dense.tobytes()
        assert list(a.bags) == list(b.bags)
        for name in a.bags:
            x, y = a.bags[name], b.bags[name]
            assert x.ids.dtype == y.ids.dtype == np.int64
            assert np.array_equal(x.ids, y.ids), name
            assert np.array_equal(x.offsets, y.offsets), name
            assert np.array_equal(x.rids, y.rids), name


@pytest.mark.parametrize("name, kinds", CASES)
@pytest.mark.parametrize("batch_size, n", [(1, 1), (3, 7), (2, 40)])
@pytest.mark.parametrize(
    "one", [parent_sample_batch, lambda model, *args: model.sample_batch(*args)],
    ids=["parent", "sample_batch"],
)
def test_equals_n_calls_of_sample_batch(name, kinds, batch_size, n, one):
    model = _model(name)
    bulk_rng, one_rng = np.random.default_rng(5), np.random.default_rng(5)
    got = model.sample_batches(bulk_rng, batch_size, n, _samplers(model, kinds))
    samplers = _samplers(model, kinds)
    want = [one(model, one_rng, batch_size, samplers) for _ in range(n)]
    _assert_same(got, want)
    # The run's RNG is left where n calls leave it: what is drawn next agrees.
    assert bulk_rng.random() == one_rng.random()


@pytest.mark.parametrize("name", ["din", "dlrm"])
def test_one_batch_draws_a_sampler_where_it_always_did(name):
    """A user's sampler draws from the run's RNG, so it is only ever
    given for one batch; there it still draws after the dense inputs and
    the uniform features before it, as the parent did."""
    model = _model(name)

    def drawn(one):
        rng = np.random.default_rng(9)
        sampler = lambda n: rng.integers(0, 64, size=n, dtype=np.int64)  # noqa: E731
        return [one(model, rng, 2, {model.features[-1].name: sampler}) for _ in range(3)]

    _assert_same(
        drawn(lambda model, *args: model.sample_batch(*args)),
        drawn(parent_sample_batch),
    )


def test_a_sequence_feature_keeps_every_id_its_own_bag():
    model = build_model("din")
    (batch,) = model.sample_batches(np.random.default_rng(0), 3, 1)
    hist, cand = model.features
    assert hist.sequence and len(batch.bags[hist.name]) == 3 * hist.lookups
    assert len(batch.bags[cand.name]) == 3


def test_no_batches_draw_nothing():
    model = build_model("din")
    calls = []
    rng = np.random.default_rng(0)
    sampler = {model.features[0].name: lambda n: calls.append(n)}
    assert model.sample_batches(rng, 2, 0, sampler) == []
    assert calls == [] and rng.random() == np.random.default_rng(0).random()


def test_a_short_stream_is_refused_with_the_count_asked_for():
    model = build_model("din")
    hist = model.features[0]
    short = {hist.name: lambda n: np.zeros(n - 1, dtype=np.int64)}
    with pytest.raises(ValueError, match=rf"returned {5 * 2 * hist.lookups - 1} ids"):
        model.sample_batches(np.random.default_rng(0), 2, 5, short)
