"""One registry for every stats surface that must clear between windows.

Benchmarks follow a warm-up / ``reset_stats()`` / measure pattern, and
before this module each counter-bearing class (``ServingStats``,
``ClusterStats``, the embedding/page caches, the FTL and its GC/wear
gauges) had to be found and reset individually —
``tests/hotpath/test_stats_reset.py`` introspected each class ad hoc,
and a new gauge added to any of them silently escaped the audit.

Instead, every such object now calls :func:`register_resettable` from
its constructor.  The registry is a :class:`weakref.WeakSet`, so
registration never extends an object's lifetime and short-lived
benchmark fixtures vanish from it with their last strong reference.

:func:`reset_all` clears every live registered object (``reset_stats()``
preferred, ``reset()`` as the fallback the older classes expose), and
the audit test reduces to: build a stack, dirty it, ``reset_all()``,
assert zeros — one surface, however many classes register.
"""

from __future__ import annotations

import weakref
from typing import List

__all__ = [
    "register_resettable",
    "reset_all",
    "live_resettables",
    "clear_registry",
]

_REGISTRY: "weakref.WeakSet" = weakref.WeakSet()


def register_resettable(obj) -> None:
    """Add ``obj`` (weakly) to the global reset registry.

    ``obj`` must expose ``reset_stats()`` or ``reset()``; registering
    anything else raises immediately, so a class cannot register a
    surface the auditor can't clear.
    """
    reset = getattr(obj, "reset_stats", None) or getattr(obj, "reset", None)
    if not callable(reset):
        raise TypeError(
            f"{type(obj).__name__} has neither reset_stats() nor reset()"
        )
    _REGISTRY.add(obj)


def live_resettables() -> List[object]:
    """A strong-referenced snapshot of currently-live registered objects."""
    return list(_REGISTRY)


def reset_all() -> int:
    """Reset every live registered object; returns how many were reset."""
    objs = live_resettables()
    for obj in objs:
        reset = getattr(obj, "reset_stats", None)
        if not callable(reset):
            reset = obj.reset
        reset()
    return len(objs)


def clear_registry() -> None:
    """Forget all registrations (test isolation helper)."""
    _REGISTRY.clear()
