"""Declared parameter domains: which values a field or an argument accepts.

A config dataclass types each numeric field with an alias below (or
``Optional[...]`` of one, ``Annotated[float, Domain(...)]`` or a map to one,
``Dict[str, Pos]``) and sets ``__post_init__ = check_domains``, or calls it
first in its own, then checks rules across fields by hand.  A constructor,
or a function taking outside input, types its parameters alike under
:func:`checked`.  Every domain is finite.  Records made per request never
call either.  :func:`declared` is the checker's table and the knob space a
sweep walks.  A leaf: this module imports nothing from ``repro``.
"""

from __future__ import annotations

import collections.abc
import functools
import math
import typing
from dataclasses import dataclass, fields, is_dataclass
from numbers import Integral, Real
from typing import Annotated, Any, Callable, Dict, Optional, Tuple

__all__ = ["Domain", "NonNeg", "Pos", "Fraction", "Count", "PosCount", "Int",
           "check_domains", "checked", "declared"]


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


# owner (a dataclass or an unwrapped function) -> ((name, position in a call
# or None, domain, None allowed, a map to such values), ...), resolved once.
_Arg = Tuple[str, Optional[int], Domain, bool, bool]
_SPECS: Dict[Any, Tuple[_Arg, ...]] = {}


def _spec(owner: Any) -> Tuple[_Arg, ...]:
    if owner not in _SPECS:
        hints = typing.get_type_hints(owner, include_extras=True)
        if isinstance(owner, type):
            named = [(field.name, None) for field in fields(owner)]
        else:
            code = owner.__code__
            names = code.co_varnames[: code.co_argcount + code.co_kwonlyargcount]
            named = [(name, i if i < code.co_argcount else None) for i, name in enumerate(names)]
        found = []
        for name, position in named:
            hint = hints.get(name)
            optional = type(None) in typing.get_args(hint)  # Optional[Alias]
            hint = typing.get_args(hint)[0] if optional else hint
            keyed = typing.get_origin(hint) in (dict, collections.abc.Mapping)
            hint = typing.get_args(hint)[-1] if keyed and typing.get_args(hint) else hint
            found += [(name, position, meta, optional, keyed)
                      for meta in getattr(hint, "__metadata__", ()) if isinstance(meta, Domain)]
        _SPECS[owner] = tuple(found)
    return _SPECS[owner]


def declared(owner: Any) -> Dict[str, Domain]:
    """Name -> :class:`Domain` for each declared field of dataclass ``owner``,
    or each declared parameter of a function or of a class's ``__init__``."""
    if isinstance(owner, type) and not is_dataclass(owner):
        owner = owner.__init__
    return {name: domain for name, _, domain, _, _ in _spec(getattr(owner, "__wrapped__", owner))}


def _refuse(owner: str, arg: _Arg, value: Any) -> None:
    name, _, domain, optional, keyed = arg
    if value is None and optional:
        return
    for key, item in value.items() if keyed else ((None, value),):
        if item not in domain:
            where = name if key is None else f"{name}[{key!r}]"
            raise ValueError(f"{owner}.{where} must be {domain}, got {item!r}")


def check_domains(obj: object) -> None:
    """Refuse any declared field of dataclass ``obj`` outside its domain,
    with a ``ValueError`` naming the class, the field and the value."""
    for arg in _spec(type(obj)):
        _refuse(type(obj).__name__, arg, getattr(obj, arg[0]))


def checked(func: Callable[..., Any]) -> Callable[..., Any]:
    """Check each declared argument passed to ``func`` before its body runs;
    the ``ValueError`` names the owner (the class, for an ``__init__``).
    Defaults are not checked."""
    owner = func.__qualname__.removesuffix(".__init__")

    @functools.wraps(func)
    def check_then_call(*args, **kwargs):
        for arg in _SPECS.get(func) or _spec(func):
            name, position = arg[:2]
            if position is not None and position < len(args):
                _refuse(owner, arg, args[position])
            elif name in kwargs:
                _refuse(owner, arg, kwargs[name])
        return func(*args, **kwargs)

    return check_then_call
