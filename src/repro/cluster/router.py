"""Front-end routing policies: which host serves the next request.

The fleet analogue of RecNMP's locality argument: embedding caches make
a host *warm* for the users whose rows it has recently served, so the
router — not just the cache — decides the fleet's hit rate.  Three
policies, in increasing locality awareness:

* :class:`RoundRobinRouter` — even spread, no locality.  The baseline
  every locality claim is measured against.
* :class:`LeastLoadedRouter` — pick the routable host with the fewest
  in-flight (or queued) requests.  Best instantaneous balance, still no
  locality: a user's rows end up cached on every host.
* :class:`ConsistentHashRouter` — hash the user (or request) id onto a
  ring of virtual nodes so repeat users land on the same host while keys
  redistribute minimally when a host drains or fails.  ``spread > 1``
  adds read spreading: each key may be served by its ``spread`` ring
  successors (its replica set), the least-loaded of which takes the
  request — hot keys stop melting a single host at the cost of warming
  ``spread`` caches instead of one.

Hashing is deterministic across processes (BLAKE2-based, no Python
``hash``), so fixed-seed cluster runs are bit-reproducible and can be
golden-pinned.

Routers only see :class:`~repro.cluster.node.ClusterNode` lifecycle
state (``routable``) and load gauges; admission, QoS and batching stay
per-host concerns.  Route counters (``routes_by_host`` and the
consistent-hash ``routes_rerouted`` / ``routes_spread`` gauges) reset
via ``reset_stats()`` like every other stats-bearing component; private
attributes (rotation positions, ring caches) are operational state, not
stats, and survive a reset.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from bisect import bisect_right
from typing import Dict, List, Sequence, Tuple

from ..params import PosCount, checked
from .node import ClusterNode

__all__ = [
    "Router",
    "RoundRobinRouter",
    "LeastLoadedRouter",
    "ConsistentHashRouter",
    "make_router",
]

_M64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    """splitmix64 finalizer: deterministic, well-spread 64-bit hash."""
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def _name_hash(name: str) -> int:
    """Stable 64-bit digest of a host name (independent of
    PYTHONHASHSEED, unlike builtin ``hash``)."""
    return int.from_bytes(
        hashlib.blake2b(name.encode(), digest_size=8).digest(), "big"
    )


class Router(ABC):
    """Picks a routable host for each request.

    ``route(key, model, nodes)`` receives the model's *placed* nodes (its
    replica set, stable across calls) and filters routability itself;
    the caller guarantees at least one node is routable.  ``key`` is the
    request's user id when the workload carries one, else a fleet-wide
    submission sequence number.
    """

    def __init__(self) -> None:
        self.reset_stats()

    def reset_stats(self) -> None:
        self.routes_by_host: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def route(
        self, key: int, model: str, nodes: Sequence[ClusterNode]
    ) -> ClusterNode:
        live = [n for n in nodes if n.routable]
        if not live:
            raise RuntimeError(f"no routable host for model {model!r}")
        node = self._pick(key, model, nodes, live)
        self.routes_by_host[node.name] = (
            self.routes_by_host.get(node.name, 0) + 1
        )
        return node

    @abstractmethod
    def _pick(
        self,
        key: int,
        model: str,
        nodes: Sequence[ClusterNode],
        live: List[ClusterNode],
    ) -> ClusterNode:
        """Choose from ``live`` (non-empty, ordered as in ``nodes``)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class RoundRobinRouter(Router):
    """Cycle over the routable hosts, one per-model rotation."""

    def __init__(self) -> None:
        super().__init__()
        self._position: Dict[str, int] = {}

    def _pick(self, key, model, nodes, live):
        position = self._position.get(model, 0)
        self._position[model] = position + 1
        return live[position % len(live)]


class LeastLoadedRouter(Router):
    """Route to the routable host with the lightest load.

    ``by="inflight"`` counts everything admitted and not yet completed
    (the queueing-theory signal); ``by="queued"`` counts only requests
    waiting for dispatch.  Ties go to the earliest host in placement
    order, keeping runs deterministic.
    """

    def __init__(self, by: str = "inflight") -> None:
        if by not in ("inflight", "queued"):
            raise ValueError(f"unknown load signal {by!r}")
        super().__init__()
        self.by = by

    def _pick(self, key, model, nodes, live):
        if self.by == "inflight":
            return min(live, key=lambda n: n.inflight)
        return min(live, key=lambda n: n.queued)

    def __repr__(self) -> str:
        return f"LeastLoadedRouter(by={self.by!r})"


class ConsistentHashRouter(Router):
    """Locality-aware routing: hash the user id onto a ring of hosts.

    Each placed host contributes ``vnodes`` virtual points to a hash
    ring; a request walks the ring clockwise from its key's hash to the
    first routable host.  Properties the cluster tier leans on:

    * **cache locality** — a given user always lands on the same host
      (while it is up), so that host's embedding caches hold the user's
      rows and the per-host working set shrinks to ~1/N of the fleet's;
    * **minimal disruption** — draining or failing a host moves only the
      keys that hashed to it (to their ring successors); every other
      user keeps its warm host, unlike round-robin re-spreading;
    * **read spreading** (``spread > 1``) — a key's replica set is its
      first ``spread`` distinct routable ring successors and the
      least-loaded of them serves the request.  The hot-key pressure
      valve: popular users' rows end up replicated across ``spread``
      caches and their reads spread, instead of one host absorbing the
      whole spike.

    Gauges: ``routes_rerouted`` counts routes whose primary successor
    (ignoring liveness) was not routable — i.e. traffic a drain/failure
    actually displaced; ``routes_spread`` counts routes served by a
    non-primary replica under read spreading.
    """

    @checked
    def __init__(self, vnodes: PosCount = 64, spread: PosCount = 1) -> None:
        super().__init__()
        self.vnodes = vnodes
        self.spread = spread
        # (model, placed-host names) -> sorted [(point, node index)].
        # Placement is stable per model, so rings build once; liveness is
        # filtered per route so drains never rebuild (= minimal movement).
        self._rings: Dict[
            Tuple[str, Tuple[str, ...]], List[Tuple[int, int]]
        ] = {}

    def reset_stats(self) -> None:
        super().reset_stats()
        self.routes_rerouted = 0
        self.routes_spread = 0

    # ------------------------------------------------------------------
    def _ring(
        self, model: str, nodes: Sequence[ClusterNode]
    ) -> List[Tuple[int, int]]:
        signature = (model, tuple(n.name for n in nodes))
        ring = self._rings.get(signature)
        if ring is None:
            ring = []
            for index, node in enumerate(nodes):
                base = _name_hash(node.name)
                for v in range(self.vnodes):
                    ring.append((_mix64(base ^ _mix64(v)), index))
            ring.sort()
            self._rings[signature] = ring
        return ring

    def _pick(self, key, model, nodes, live):
        ring = self._ring(model, nodes)
        point = _mix64(int(key))
        start = bisect_right(ring, (point, len(nodes)))
        # Walk clockwise collecting the replica set: the first `spread`
        # distinct routable hosts.  The very first distinct host seen —
        # routable or not — is the key's primary.
        replicas: List[ClusterNode] = []
        seen: set = set()
        primary_live = None
        for step in range(len(ring)):
            _, index = ring[(start + step) % len(ring)]
            if index in seen:
                continue
            seen.add(index)
            node = nodes[index]
            if primary_live is None:
                primary_live = node.routable
            if node.routable:
                replicas.append(node)
                if len(replicas) == self.spread:
                    break
        if not primary_live:
            self.routes_rerouted += 1
        if len(replicas) == 1:
            return replicas[0]
        choice = min(replicas, key=lambda n: n.inflight)
        if choice is not replicas[0]:
            self.routes_spread += 1
        return choice

    def __repr__(self) -> str:
        return f"ConsistentHashRouter(vnodes={self.vnodes}, spread={self.spread})"


@checked
def make_router(
    kind: str,
    least_loaded_by: str = "inflight",
    hash_vnodes: PosCount = 64,
    hash_spread: PosCount = 1,
) -> Router:
    """Router factory for declarative specs (``ClusterSpec.router``)."""
    if kind == "round_robin":
        return RoundRobinRouter()
    if kind == "least_loaded":
        return LeastLoadedRouter(by=least_loaded_by)
    if kind == "consistent_hash":
        return ConsistentHashRouter(vnodes=hash_vnodes, spread=hash_spread)
    raise ValueError(f"unknown router {kind!r}")
