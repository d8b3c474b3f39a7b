"""Analysis unit tests on hand-built span sets with known answers."""

from __future__ import annotations

import pytest

from repro.obs import (
    Tracer,
    attribute_p99,
    build_forest,
    build_request_trees,
    critical_path,
    exclusive_times,
)
from repro.sim.stats import rank_quantile


def _tree_tracer() -> Tracer:
    """root [0, 10] with children a [1, 4] and b [6, 8]; a has leaf
    aa [2, 3].  Exclusive: root 5 (0-1, 4-6, 8-10), a 2, aa 1, b 2."""
    tr = Tracer()
    root = tr.add("root", 0.0, 10.0)
    a = tr.add("a", 1.0, 4.0, parent=root)
    tr.add("aa", 2.0, 3.0, parent=a)
    tr.add("b", 6.0, 8.0, parent=root)
    return tr


def test_build_forest_orders_and_roots():
    tr = _tree_tracer()
    tr.add("orphan", 0.0, 1.0)  # parentless -> second root
    roots, nodes = build_forest(tr)
    assert [r.name for r in roots] == ["root", "orphan"]
    root = roots[0]
    assert [c.name for c in root.children] == ["a", "b"]
    assert len(nodes) == 5
    assert [n.name for n in root.walk()] == ["root", "a", "aa", "b"]


def test_build_forest_skips_incomplete_spans():
    tr = Tracer()
    tr.add("done", 0.0, 1.0)
    tr.begin("open")  # never ended
    roots, nodes = build_forest(tr)
    assert [r.name for r in roots] == ["done"]
    assert len(nodes) == 1


def test_exclusive_times_partition_known_values():
    (root,) = [r for r in build_forest(_tree_tracer())[0] if r.name == "root"]
    ex = exclusive_times(root)
    assert ex == {"root": 5.0, "a": 2.0, "aa": 1.0, "b": 2.0}
    assert sum(ex.values()) == root.span.duration


def test_exclusive_times_overlapping_siblings_no_double_count():
    tr = Tracer()
    root = tr.add("root", 0.0, 10.0)
    tr.add("a", 1.0, 5.0, parent=root)
    tr.add("b", 3.0, 7.0, parent=root)  # overlaps a on [3, 5]
    roots, _ = build_forest(tr)
    ex = exclusive_times(roots[0])
    # Earlier-starting child wins the overlap: a gets [1,5], b only [5,7].
    assert ex == {"root": 4.0, "a": 4.0, "b": 2.0}
    assert sum(ex.values()) == 10.0


def test_exclusive_times_child_exceeding_parent_is_clipped():
    tr = Tracer()
    root = tr.add("root", 2.0, 8.0)
    tr.add("wide", 0.0, 10.0, parent=root)  # e.g. a shared batch span
    roots, _ = build_forest(tr)
    ex = exclusive_times(roots[0])
    assert ex == {"wide": 6.0}
    assert sum(ex.values()) == roots[0].span.duration


def test_critical_path_follows_last_finisher():
    tr = _tree_tracer()
    roots, _ = build_forest(tr)
    path = critical_path(roots[0])
    assert [row["name"] for row in path] == ["root", "b"]
    assert path[0]["exclusive_s"] == 5.0
    assert path[1]["duration_s"] == 2.0


def test_build_request_trees_grafts_batch_subtree():
    tr = Tracer()
    batch = tr.add("batch", 0.0, 3.0, model="m")
    tr.add("sls_op", 0.5, 2.5, parent=batch)
    for rid, (t0, t1) in enumerate([(0.0, 4.0), (0.5, 5.0)]):
        root = tr.add("request", t0, t1, request_id=rid)
        tr.add("queue", t0, t0, parent=root)
        tr.add("emb", t0, t1 - 1.0, parent=root, batch_sid=batch.sid)
        tr.add("dense", t1 - 1.0, t1, parent=root)
    trees = build_request_trees(tr)
    assert len(trees) == 2
    for tree in trees:
        emb = next(c for c in tree.children if c.name == "emb")
        assert [c.name for c in emb.children] == ["batch"]
        ex = exclusive_times(tree)
        assert "sls_op" in ex  # device tier visible through the graft
        assert sum(ex.values()) == pytest.approx(
            tree.span.duration, abs=1e-12
        )


def test_attribute_p99_empty_and_cohort():
    assert attribute_p99(Tracer())["cohort"] == 0
    tr = Tracer()
    # 10 requests: nine 1 s, one 5 s whose time is all in "slow".
    for i in range(9):
        root = tr.add("request", float(i), float(i) + 1.0)
        tr.add("fast", float(i), float(i) + 1.0, parent=root)
    root = tr.add("request", 20.0, 25.0)
    tr.add("slow", 20.0, 25.0, parent=root)
    report = attribute_p99(tr)
    assert report["requests"] == 10
    assert report["cohort"] == 1
    assert report["threshold_s"] == 5.0
    assert report["dominant"] == "slow"
    assert report["stages"] == {"slow": 5.0}
    assert sum(report["stages"].values()) == pytest.approx(
        report["cohort_latency_s"], abs=1e-12
    )


def test_attribute_pct_50_is_the_shared_rank_rule():
    """The threshold is what ``ServingStats.percentile(0.5)`` returns for
    the same four latencies (``rank_quantile``: index round(0.5 * 3) = 2),
    not the ceil rule this function used to carry (index 1, cohort 3)."""
    tr = Tracer()
    for i in range(4):
        tr.add("request", 0.0, float(i + 1))
    report = attribute_p99(tr, pct=50.0)
    assert report["threshold_s"] == rank_quantile([1.0, 2.0, 3.0, 4.0], 0.5) == 3.0
    assert report["cohort"] == 2  # durations 3, 4
