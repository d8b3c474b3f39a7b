"""Embedding element types and quantization codecs.

Shared between the host-side embedding layer and the SSD-side NDP engine
(both interpret the same on-flash representation).  Quantized tables use
a single per-table scale (symmetric linear quantization), which matches
the quantization sweep in the paper's Figure 11a where what matters is
the bytes-per-vector ratio against the flash page size.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .params import Pos, check_domains

__all__ = ["EmbDtype", "QuantSpec", "encode_vectors", "decode_vectors"]


class EmbDtype(Enum):
    """An element type; its width and numpy dtype are attributes of the
    member, so reading one calls no function."""

    FP32 = "fp32", np.float32
    FP16 = "fp16", np.float16
    INT8 = "int8", np.int8

    def __new__(cls, value: str, numpy_type: type):
        member = object.__new__(cls)
        member._value_ = value
        member.numpy_dtype = np.dtype(numpy_type)
        member.bytes_per_element = member.numpy_dtype.itemsize
        return member


@dataclass(frozen=True)
class QuantSpec:
    """Element type plus the scale used for INT8 tables."""

    dtype: EmbDtype = EmbDtype.FP32
    scale: Pos = 1.0 / 64.0

    def row_bytes(self, dim: int) -> int:
        return dim * self.dtype.bytes_per_element

    __post_init__ = check_domains


def encode_vectors(values: np.ndarray, spec: QuantSpec) -> np.ndarray:
    """float32 [n, dim] -> storage representation [n, dim] in spec.dtype."""
    values = np.asarray(values, dtype=np.float32)
    if spec.dtype is EmbDtype.FP32:
        return values.copy()
    if spec.dtype is EmbDtype.FP16:
        return values.astype(np.float16)
    quantized = np.clip(np.rint(values / spec.scale), -128, 127)
    return quantized.astype(np.int8)


def decode_vectors(stored: np.ndarray, spec: QuantSpec) -> np.ndarray:
    """Storage representation -> float32 [n, dim]."""
    if spec.dtype is EmbDtype.FP32:
        return np.asarray(stored, dtype=np.float32)
    if spec.dtype is EmbDtype.FP16:
        return stored.astype(np.float32)
    return stored.astype(np.float32) * spec.scale
