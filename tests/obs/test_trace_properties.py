"""Property tests: the exclusive-time partition holds for arbitrary trees.

Hypothesis draws random span trees — both well-formed ones (children
strictly nested inside their parents, the shape instrumentation
produces) and adversarial ones (children overlapping each other or
spilling outside the parent, the shape a grafted shared batch span can
produce) — and checks the invariants the analyzer is built on:

* generated children nest inside their parent (well-formed case), and
  ``build_forest`` preserves exactly that structure;
* per-stage exclusive times are non-negative and **sum to the root's
  duration** within 1e-9 s, whatever the tree shape;
* the critical path starts at the root and never leaves its interval.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.obs import (
    Tracer,
    build_forest,
    critical_path,
    exclusive_times,
)

EPS = 1e-9

# Small alphabet so sibling spans share stage names (exercises bucket
# accumulation, not just one entry per span).
_NAMES = st.sampled_from(["a", "b", "c", "d"])


@st.composite
def nested_tree(draw, depth: int = 3):
    """(name, t0, t1, children) with children strictly inside [t0, t1],
    mutually disjoint and time-ordered."""

    def subtree(lo: float, hi: float, level: int):
        name = draw(_NAMES)
        children = []
        if level > 0 and hi - lo > 1e-6:
            n = draw(st.integers(0, 3))
            if n:
                cuts = sorted(
                    draw(
                        st.lists(
                            st.floats(0.0, 1.0, allow_nan=False),
                            min_size=2 * n,
                            max_size=2 * n,
                        )
                    )
                )
                for i in range(n):
                    # min(): lo + (hi - lo) * 1.0 can land one ulp above hi.
                    c_lo = min(hi, lo + (hi - lo) * cuts[2 * i])
                    c_hi = min(hi, lo + (hi - lo) * cuts[2 * i + 1])
                    if c_hi > c_lo:
                        children.append(subtree(c_lo, c_hi, level - 1))
        return (name, lo, hi, children)

    t1 = draw(st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False))
    return subtree(0.0, t1, depth)


def _record(tracer: Tracer, tree, parent=None):
    name, t0, t1, children = tree
    span = tracer.add(name, t0, t1, parent=parent)
    for child in children:
        _record(tracer, child, parent=span)
    return span


@given(nested_tree())
@settings(max_examples=200, deadline=None)
def test_nested_children_partition_root_duration(tree):
    tracer = Tracer()
    _record(tracer, tree)
    roots, _ = build_forest(tracer)
    assert len(roots) == 1
    root = roots[0]
    # Nesting invariant: every child interval is inside its parent's.
    for node in root.walk():
        for child in node.children:
            assert child.span.t0 >= node.span.t0
            assert child.span.t1 <= node.span.t1
    ex = exclusive_times(root)
    assert all(v >= 0.0 for v in ex.values())
    assert abs(sum(ex.values()) - root.span.duration) < EPS


@given(
    root_t1=st.floats(0.1, 100.0, allow_nan=False),
    intervals=st.lists(
        st.tuples(
            st.floats(-10.0, 110.0, allow_nan=False),
            st.floats(0.0, 50.0, allow_nan=False),
        ),
        max_size=8,
    ),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_overlapping_or_spilling_children_still_sum_exactly(
    root_t1, intervals, data
):
    """Children may overlap each other and extend past the root (the
    grafted shared-batch shape); the partition must still be exact."""
    tracer = Tracer()
    root = tracer.add("root", 0.0, root_t1)
    for t0, width in intervals:
        tracer.add(data.draw(_NAMES), t0, t0 + width, parent=root)
    roots, _ = build_forest(tracer)
    ex = exclusive_times(roots[0])
    assert all(v >= 0.0 for v in ex.values())
    assert abs(sum(ex.values()) - root_t1) < EPS


@given(nested_tree())
@settings(max_examples=100, deadline=None)
def test_critical_path_stays_inside_root(tree):
    tracer = Tracer()
    _record(tracer, tree)
    roots, _ = build_forest(tracer)
    path = critical_path(roots[0])
    assert path[0]["name"] == roots[0].name
    for row in path:
        assert row["t0"] >= roots[0].span.t0 - EPS
        assert row["t1"] <= roots[0].span.t1 + EPS
        assert row["exclusive_s"] >= 0.0
