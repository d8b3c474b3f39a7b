"""Experiment CLI: ``python -m repro.experiments <id> [--full] [--seed N]``.

Runs the reproduction of each paper table/figure and prints the result
rows as an aligned text table.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict

from . import (
    ablations,
    calibration,
    claims,
    ext_multi_ssd,
    ext_qos,
    fig3_reuse,
    fig4_locality,
    fig5_sls,
    fig6_end_to_end,
    fig8_breakdown,
    fig9_naive_ndp,
    fig10_caching,
    fig11_sensitivity,
    table1_params,
)
from .common import ExperimentResult

__all__ = ["REGISTRY", "run_experiment", "main"]

REGISTRY: Dict[str, Callable[..., ExperimentResult]] = {
    "fig3": fig3_reuse.run,
    "fig4": fig4_locality.run,
    "fig5": fig5_sls.run,
    "fig6": fig6_end_to_end.run,
    "table1": table1_params.run,
    "fig8": fig8_breakdown.run,
    "fig9": fig9_naive_ndp.run,
    "fig10": fig10_caching.run,
    "fig11": fig11_sensitivity.run,
    "ablations": ablations.run,
    "calibration": calibration.run,
    "multi_ssd": ext_multi_ssd.run,
    "qos": ext_qos.run,
    "claims": claims.run,
}


def run_experiment(name: str, fast: bool = True, seed: int = 0) -> ExperimentResult:
    try:
        runner = REGISTRY[name]
    except KeyError:
        raise SystemExit(
            f"unknown experiment {name!r}; choose from {sorted(REGISTRY)} or 'all'"
        )
    return runner(fast=fast, seed=seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="recssd-experiments",
        description="Reproduce the RecSSD paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help=f"experiment ids ({', '.join(sorted(REGISTRY))}) or 'all'",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="full parameter sweeps (slow); default is the fast subset",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    names = list(REGISTRY) if "all" in args.experiments else args.experiments
    for name in names:
        start = time.time()
        result = run_experiment(name, fast=not args.full, seed=args.seed)
        print(result.to_text())
        print(f"({name} took {time.time() - start:.1f}s)\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
