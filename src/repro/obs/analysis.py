"""Trace analysis: span forests, critical paths, and p99 attribution.

Works on the plain span lists a :class:`~repro.obs.tracer.Tracer`
records.  The central primitive is an *exact exclusive-time
decomposition*: :func:`exclusive_times` partitions a span's interval
among its children (earlier-starting child wins an overlap, leftover
stays with the parent, recursion descends into each child's assigned
sub-interval), so the per-stage times of one request **sum to its
end-to-end latency** up to float addition error — the property
``attribute_p99`` asserts and ``tests/obs`` pins to 1e-9 s.

Request trees
-------------
The serving layer synthesizes one ``request`` root per completed
request (children ``queue`` / ``emb`` / ``dense_wait`` / ``dense``
tiling ``[t_arrival, t_done]``), and the batch scheduler records one
``batch`` span per coalesced dispatch whose subtree holds the device
tier (``sls_op`` → ``nvme.cmd`` → ``ftl.read`` / ``ftl.write``).  A
batch fans in to many requests, so the batch span cannot be a tree
child of any single request; instead each request's ``emb`` child
carries a ``batch_sid`` attribute and :func:`build_request_trees`
*grafts* the batch subtree under ``emb`` (clipped to the request's
window during decomposition).  The same device span legitimately
attributes into every coalesced request — each of them really did wait
on that device work.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..sim.stats import rank_quantile
from .tracer import Span, Tracer

__all__ = [
    "SpanNode",
    "build_forest",
    "build_request_trees",
    "exclusive_times",
    "critical_path",
    "attribute_p99",
]


class SpanNode:
    """A span plus its (t0-ordered) children in the trace forest."""

    __slots__ = ("span", "children")

    def __init__(self, span: Span):
        self.span = span
        self.children: List["SpanNode"] = []

    @property
    def name(self) -> str:
        return self.span.name

    def walk(self) -> Iterable["SpanNode"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return f"SpanNode({self.span!r}, children={len(self.children)})"


def _spans_of(trace: Union[Tracer, Iterable[Span]]) -> List[Span]:
    if isinstance(trace, Tracer):
        return list(trace.spans)
    return list(trace)


def build_forest(
    trace: Union[Tracer, Iterable[Span]],
) -> Tuple[List[SpanNode], Dict[int, SpanNode]]:
    """Index spans into ``(roots, nodes_by_sid)``.

    Only *complete* spans (``t1`` set) participate; children are ordered
    by ``(t0, sid)``.  A span whose parent is missing from the trace
    becomes a root.
    """
    nodes: Dict[int, SpanNode] = {}
    for span in _spans_of(trace):
        if span.t1 is not None:
            nodes[span.sid] = SpanNode(span)
    roots: List[SpanNode] = []
    for node in nodes.values():
        parent = nodes.get(node.span.parent_sid)
        if parent is not None:
            parent.children.append(node)
        else:
            roots.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda n: (n.span.t0, n.span.sid))
    roots.sort(key=lambda n: (n.span.t0, n.span.sid))
    return roots, nodes


def build_request_trees(
    trace: Union[Tracer, Iterable[Span]],
) -> List[SpanNode]:
    """Per-request trees with the coalesced batch subtree grafted in.

    Returns the ``request`` roots, ordered by start time.  Where a
    request's ``emb`` child names a ``batch_sid``, the batch's
    :class:`SpanNode` (shared, read-only) is appended to the ``emb``
    child, connecting the request to the device tier it waited on.
    """
    roots, nodes = build_forest(trace)
    trees: List[SpanNode] = []
    for root in roots:
        if root.name != "request":
            continue
        for child in root.children:
            if child.name != "emb":
                continue
            batch_sid = child.span.attrs.get("batch_sid")
            batch_node = nodes.get(batch_sid) if batch_sid is not None else None
            if batch_node is not None and batch_node not in child.children:
                child.children.append(batch_node)
                child.children.sort(key=lambda n: (n.span.t0, n.span.sid))
        trees.append(root)
    return trees


def _attribute(
    node: SpanNode, a: float, b: float, out: Dict[str, float]
) -> None:
    """Attribute the interval ``[a, b]`` (within ``node``'s span) among
    ``node``'s children; leftover accrues to ``node.name``.

    The pieces form an exact partition of ``[a, b]``: every point lands
    in exactly one leaf bucket, so the bucket sums reconstruct ``b - a``
    up to float addition error.
    """
    cursor = a
    for child in node.children:
        lo = child.span.t0
        hi = child.span.t1
        if hi <= cursor or lo >= b:
            continue
        if lo < cursor:
            lo = cursor
        if hi > b:
            hi = b
        if lo > cursor:
            out[node.name] = out.get(node.name, 0.0) + (lo - cursor)
        _attribute(child, lo, hi, out)
        cursor = hi
        if cursor >= b:
            break
    if cursor < b:
        out[node.name] = out.get(node.name, 0.0) + (b - cursor)


def exclusive_times(tree: SpanNode) -> Dict[str, float]:
    """Per-stage *exclusive* seconds over ``tree``'s whole interval.

    Keys are span names; values sum to ``tree.span.duration`` within
    float epsilon (the partition property above).
    """
    out: Dict[str, float] = {}
    if tree.span.t1 > tree.span.t0:
        _attribute(tree, tree.span.t0, tree.span.t1, out)
    return out


def critical_path(tree: SpanNode) -> List[Dict[str, float]]:
    """The last-finisher chain from the root down.

    At each level, descend into the child that finishes last (the one
    gating the parent's completion); report each hop's name, interval
    and exclusive time within its own subtree.  For a request tree this
    reads as "the request ended when *dense* ended, which ended when
    ...".
    """
    path: List[Dict[str, float]] = []
    node: Optional[SpanNode] = tree
    while node is not None:
        exclusive = exclusive_times(node)
        path.append(
            {
                "name": node.name,
                "t0": node.span.t0,
                "t1": node.span.t1,
                "duration_s": node.span.duration,
                "exclusive_s": exclusive.get(node.name, 0.0),
            }
        )
        node = max(
            node.children,
            key=lambda n: (n.span.t1, n.span.t0),
            default=None,
        )
    return path


def attribute_p99(
    trace: Union[Tracer, Iterable[Span]],
    pct: float = 99.0,
) -> Dict[str, object]:
    """Decompose the tail cohort's latency into per-stage exclusive time.

    Builds the request trees, takes the cohort of requests whose
    end-to-end latency is >= the ``pct`` percentile — picked by
    :func:`~repro.sim.stats.rank_quantile`, so ``pct=99`` thresholds at
    the p99 that ``ServingStats.percentile(0.99)`` and every
    ``summary()`` report — and sums each request's exact exclusive-time
    decomposition.  The returned ``stages`` mapping (name -> seconds,
    descending) sums to ``cohort_latency_s`` within float epsilon, and
    ``dominant`` names the stage that ate the tail.
    """
    trees = build_request_trees(trace)
    if not trees:
        return {
            "percentile": pct,
            "requests": 0,
            "cohort": 0,
            "threshold_s": 0.0,
            "cohort_latency_s": 0.0,
            "stages": {},
            "dominant": None,
        }
    latencies = [t.span.duration for t in trees]
    threshold = rank_quantile(sorted(latencies), pct / 100)
    cohort = [t for t in trees if t.span.duration >= threshold]
    stages: Dict[str, float] = {}
    cohort_latency = 0.0
    for tree in cohort:
        cohort_latency += tree.span.duration
        for name, seconds in exclusive_times(tree).items():
            stages[name] = stages.get(name, 0.0) + seconds
    ordered = dict(
        sorted(stages.items(), key=lambda kv: (-kv[1], kv[0]))
    )
    return {
        "percentile": pct,
        "requests": len(trees),
        "cohort": len(cohort),
        "threshold_s": threshold,
        "cohort_latency_s": cohort_latency,
        "stages": ordered,
        "dominant": next(iter(ordered), None),
    }
