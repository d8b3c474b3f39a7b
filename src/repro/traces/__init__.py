"""Synthetic input traces: locality/power-law generators + analytics.

The generators reproduce the paper's trace *shapes* (Fig 3 power-law
popularity, Fig 4 stack-distance locality); the :mod:`.analysis`
helpers measure traces — synthetic or recorded — and every public
helper is re-exported here.  :mod:`repro.workload` feeds these
generators through the serving layer as per-table id samplers, so the
same Fig 3/4-shaped streams that drive the cache studies also drive
end-to-end serving runs.
"""

from .analysis import (
    interarrival_stats,
    lru_page_hit_rate,
    rows_to_pages,
)
from .locality import LocalityTraceGenerator, unique_fraction_for_k
from .powerlaw import ZipfTraceGenerator

__all__ = [
    "interarrival_stats",
    "lru_page_hit_rate",
    "rows_to_pages",
    "LocalityTraceGenerator",
    "unique_fraction_for_k",
    "ZipfTraceGenerator",
]
