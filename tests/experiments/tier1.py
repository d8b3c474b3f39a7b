"""How tier-1 runs each result a paper claim reads: ``claims.RUNS`` in
fast mode with the arguments the suite has always asserted on,
slow-marked except for the cheap runs."""

from repro.experiments.claims import RUNS

ARGS = {
    "fig5": {"table_rows": 1 << 18},
    "fig6": {"models": ("wnd", "dien", "ncf", "rm1", "rm3")},
    "fig9": {"models": ("wnd", "ncf", "rm1", "rm3")},
}
# ``calibration`` is the run the ``calibration`` golden pins.
SLOW = frozenset(RUNS) - {"fig3", "fig4", "fig5", "fig8", "calibration"}


def run(source):
    return RUNS[source](fast=True, **ARGS.get(source, {}))
