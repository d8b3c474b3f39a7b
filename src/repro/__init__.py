"""RecSSD reproduction: near-data-processing SSD for recommendation inference.

A full-stack simulation of the ASPLOS'21 RecSSD system: NAND flash array,
greedy FTL, NVMe/PCIe, the in-FTL NDP SparseLengthsSum engine, host driver
and caches, and the eight benchmark recommendation models — everything the
paper's evaluation needs, in Python.

See ``examples/quickstart.py`` for one SLS operation on every backend, and
``repro.experiments`` for the paper's tables/figures.
"""

from __future__ import annotations

__version__ = "1.0.0"

from . import quant
from .quant import EmbDtype, QuantSpec

__all__ = ["quant", "EmbDtype", "QuantSpec", "__version__"]
