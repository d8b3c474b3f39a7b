"""Declared parameter domains: which values a config field accepts.

A config dataclass types each numeric field with an alias below (or
``Optional[...]`` of one, or ``Annotated[float, Domain(...)]``) and sets
``__post_init__ = check_domains``, or calls it first in its own, then checks
rules across fields by hand.  Every domain is finite.  Records made per
request never call it.  :func:`declared` is the checker's table and the knob
space a sweep walks.  A leaf: this module imports nothing from ``repro``.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, fields
from numbers import Integral, Real
from typing import Annotated, Dict, Tuple

__all__ = ["Domain", "NonNeg", "Pos", "Fraction", "Count", "PosCount", "Int",
           "check_domains", "declared"]


@dataclass(frozen=True)
class Domain:
    """Finite values from ``lo`` to ``hi`` (an end is open if its flag says
    so), integers only if ``integral``; ``text`` overrides the description."""

    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = False
    hi_open: bool = False
    integral: bool = False
    text: str = ""

    def __contains__(self, value: object) -> bool:
        kind = type(value)  # plain ints and floats skip the slow ABC checks
        if kind is int or kind is not float and isinstance(value, Integral):
            pass
        elif self.integral or not (kind is float or isinstance(value, Real)):
            return False
        elif not math.isfinite(value):
            return False
        above = self.lo < value if self.lo_open else self.lo <= value
        return above and (value < self.hi if self.hi_open else value <= self.hi)

    def __str__(self) -> str:
        left = "(" if self.lo_open or self.lo == -math.inf else "["
        right = ")" if self.hi_open or self.hi == math.inf else "]"
        kind = "an integer" if self.integral else "a finite number"
        return self.text or f"{kind} in {left}{self.lo:g}, {self.hi:g}{right}"


NonNeg = Annotated[float, Domain(0.0)]
Pos = Annotated[float, Domain(0.0, lo_open=True)]
Fraction = Annotated[float, Domain(0.0, 1.0)]
Count = Annotated[int, Domain(0, integral=True)]
PosCount = Annotated[int, Domain(1, integral=True)]
Int = Annotated[int, Domain(integral=True)]

# class -> ((field, domain, None allowed), ...), resolved on first use.
_SPECS: Dict[type, Tuple[Tuple[str, Domain, bool], ...]] = {}


def _spec(cls: type) -> Tuple[Tuple[str, Domain, bool], ...]:
    if cls not in _SPECS:
        hints = typing.get_type_hints(cls, include_extras=True)
        found = []
        for field in fields(cls):
            hint = hints[field.name]
            optional = type(None) in typing.get_args(hint)  # Optional[Alias]
            for arg in typing.get_args(hint) if optional else (hint,):
                found += [(field.name, meta, optional) for meta in getattr(arg, "__metadata__", ())
                          if isinstance(meta, Domain)]
        _SPECS[cls] = tuple(found)
    return _SPECS[cls]


def declared(cls: type) -> Dict[str, Domain]:
    """Field name -> :class:`Domain` for each declared field of ``cls``."""
    return {name: domain for name, domain, _ in _spec(cls)}


def check_domains(obj: object) -> None:
    """Refuse any declared field of dataclass ``obj`` outside its domain,
    with a ``ValueError`` naming the class, the field and the value."""
    for name, domain, optional in _spec(type(obj)):
        value = getattr(obj, name)
        if value not in domain and not (optional and value is None):
            raise ValueError(f"{type(obj).__name__}.{name} must be {domain}, got {value!r}")
