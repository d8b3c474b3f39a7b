"""``repro.obs`` — observability: tracing, sampling, attribution.

Three layers, all passive with respect to the simulated timeline:

* :mod:`repro.obs.tracer` — sim-time spans with parent/child causality
  (``Tracer().install(sim)``; every instrumentation site is a no-op
  while ``sim.tracer is None``).
* :mod:`repro.obs.metrics` — the opt-in :class:`PeriodicSampler`: a
  read-only probe over the counters objects keep as attributes
  (:func:`serving_probe`), sampled into a sim-time series.
* :mod:`repro.obs.analysis` / :mod:`repro.obs.export` — request-tree
  reconstruction, exact exclusive-time latency attribution
  (:func:`attribute_p99`) and Chrome/Perfetto +
  CSV export (``tools/trace_export.py``).

The stats-reset registry every counter-bearing class registers into
lives below every tier that uses it, in :mod:`repro.sim.resettable`; it
is re-exported here (see ``docs/OBSERVABILITY.md``).
"""

from ..sim.resettable import (
    clear_registry,
    live_resettables,
    register_resettable,
    reset_all,
)
from .analysis import (
    SpanNode,
    attribute_p99,
    build_forest,
    build_request_trees,
    exclusive_times,
)
from .export import (
    to_chrome_trace,
    to_csv_rows,
    validate_chrome_trace,
    write_chrome_trace,
    write_csv,
)
from .metrics import PeriodicSampler, serving_probe
from .tracer import NULL_TRACER, Span, Tracer

__all__ = [
    "Span",
    "Tracer",
    "NULL_TRACER",
    "PeriodicSampler",
    "serving_probe",
    "register_resettable",
    "reset_all",
    "live_resettables",
    "clear_registry",
    "SpanNode",
    "build_forest",
    "build_request_trees",
    "exclusive_times",
    "attribute_p99",
    "to_chrome_trace",
    "write_chrome_trace",
    "to_csv_rows",
    "write_csv",
    "validate_chrome_trace",
]
