"""Host CPU cost model.

The paper's host is a quad-core Intel Skylake desktop running Caffe2.
Operator latencies are modelled analytically: GEMMs at class-dependent
effective GFLOP/s (large blocked GEMMs vs small/skinny framework-bound
ones vs recurrent cells), memory-bound ops at stream bandwidth, and
SparseLengthsSum gathers at the ~1GB/s effective random-access rate the
paper quotes for DRAM embedding reads.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..params import NonNeg, Pos, check_domains
from ..sim.units import GB_S, ns, us

__all__ = ["HostCpuConfig", "HostCpu"]


@dataclass(frozen=True)
class HostCpuConfig:
    gemm_gflops_large: Pos = 40.0
    gemm_gflops_small: Pos = 8.0
    gemm_small_flops: NonNeg = 20.0e6   # per-call FLOPs below which "small"
    gru_gflops: Pos = 2.0               # per-step recurrent cells
    mem_bw_bytes_s: Pos = GB_S(20.0)
    random_access_bytes_s: Pos = GB_S(1.0)     # DRAM SLS gather rate (paper)
    op_overhead_s: NonNeg = us(2.0)
    sls_per_lookup_s: NonNeg = ns(40.0)  # index arithmetic per lookup
    accumulate_bytes_s: Pos = GB_S(8.0)  # host-side vector accumulate

    __post_init__ = check_domains


class HostCpu:
    """Analytic operator timing on the host."""

    def __init__(self, config: HostCpuConfig | None = None):
        self.config = config or HostCpuConfig()

    # ------------------------------------------------------------------
    def gemm_time(self, m: int, n: int, k: int) -> float:
        flops = 2.0 * m * n * k
        if flops < self.config.gemm_small_flops:
            rate = self.config.gemm_gflops_small
        else:
            rate = self.config.gemm_gflops_large
        return self.config.op_overhead_s + flops / (rate * 1e9)

    def mlp_time(self, batch: int, dims: list[int]) -> float:
        """Sequential dense layers ``dims[0] -> dims[1] -> ...``."""
        total = 0.0
        for d_in, d_out in zip(dims, dims[1:]):
            total += self.gemm_time(batch, d_out, d_in)
        return total

    def gru_time(self, batch: int, seq_len: int, hidden: int, input_dim: int) -> float:
        """Per-step GRU cells (3 gates, input + recurrent GEMMs per step)."""
        flops_per_step = 2.0 * 3.0 * batch * hidden * (hidden + input_dim)
        total = seq_len * (
            self.config.op_overhead_s + flops_per_step / (self.config.gru_gflops * 1e9)
        )
        return total

    def elementwise_time(self, n_bytes: int) -> float:
        return self.config.op_overhead_s + n_bytes / self.config.mem_bw_bytes_s

    # ------------------------------------------------------------------
    def dram_sls_time(self, n_lookups: int, row_bytes: int) -> float:
        """An in-DRAM SparseLengthsSum (the Caffe2 operator)."""
        gather = (n_lookups * row_bytes) / self.config.random_access_bytes_s
        index_work = n_lookups * self.config.sls_per_lookup_s
        return self.config.op_overhead_s + gather + index_work

    def accumulate_time(self, n_vectors: int, row_bytes: int) -> float:
        """Host-side accumulation of fetched vectors into results."""
        return (n_vectors * row_bytes) / self.config.accumulate_bytes_s
