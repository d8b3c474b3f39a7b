"""Unit helpers.  Simulated time is float seconds; sizes are bytes."""

from __future__ import annotations

from ..params import Pos, checked

__all__ = [
    "us",
    "ms",
    "ns",
    "KIB",
    "MIB",
    "GIB",
    "MB_S",
    "GB_S",
    "to_us",
    "to_ms",
    "seconds_per_byte",
]

KIB = 1024
MIB = 1024 * 1024
GIB = 1024 * 1024 * 1024


def ns(value: float) -> float:
    """Nanoseconds -> seconds."""
    return value * 1e-9


def us(value: float) -> float:
    """Microseconds -> seconds."""
    return value * 1e-6


def ms(value: float) -> float:
    """Milliseconds -> seconds."""
    return value * 1e-3


def to_us(seconds: float) -> float:
    """Seconds -> microseconds."""
    return seconds * 1e6


def to_ms(seconds: float) -> float:
    """Seconds -> milliseconds."""
    return seconds * 1e3


def MB_S(value: float) -> float:
    """Megabytes/second -> bytes/second (decimal MB, as in datasheets)."""
    return value * 1e6


def GB_S(value: float) -> float:
    """Gigabytes/second -> bytes/second (decimal GB, as in datasheets)."""
    return value * 1e9


@checked
def seconds_per_byte(bandwidth_bytes_per_s: Pos) -> float:
    return 1.0 / bandwidth_bytes_per_s
