"""The one reader of the values drsim loads from files: run and study sections,
trajectory parameters and saved bundle records. convert alone decides what a
value is, from a file or from code (each section types its own fields with
type_fields), and every failure is a ValidationError naming section and key.
Its types: a flag, an integer, a number, text, a choice (Literal), a list
(tuple[X, ...]), and these bounded: the numbers Finite, NonNegative, Positive,
FiniteNonNegative, FinitePositive, Probability and OpenFraction, the integers
NonNegativeInt and PositiveInt, and the lists Vec3 (three finite numbers) and
Waypoints (one or more rows [t, x, y, z] of finite numbers, t increasing).
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import typing
from typing import Annotated

import numpy as np

from .errors import ValidationError

# What a flag, an integer, a number, a text and a list are, and how an error
# names each: a bool is neither an integer nor a number.
_KINDS = {
    bool: (bool, "true or false"),
    int: (numbers.Integral, "an integer"),
    float: (numbers.Real, "a number"),
    str: (str, "text"),
    list: (list, "a list"),
}


# The bounded types of values, each range declared once: the text an error
# prints and the test. NaN fails every test; inf passes >= 0 and > 0.
Finite = Annotated[float, ("in (-inf, inf)", math.isfinite)]
NonNegative = Annotated[float, (">= 0", lambda x: x >= 0.0)]  # inf: no threshold or bound
Positive = Annotated[float, ("> 0", lambda x: x > 0.0)]
FiniteNonNegative = Annotated[float, ("in [0, inf)", lambda x: 0.0 <= x < math.inf)]
FinitePositive = Annotated[float, ("in (0, inf)", lambda x: 0.0 < x < math.inf)]
Probability = Annotated[float, ("in [0, 1]", lambda x: 0.0 <= x <= 1.0)]
OpenFraction = Annotated[float, ("in (0, 1)", lambda x: 0.0 < x < 1.0)]
NonNegativeInt = Annotated[int, (">= 0", lambda x: x >= 0)]
PositiveInt = Annotated[int, (">= 1", lambda x: x >= 1)]
Vec3 = Annotated[tuple[Finite, ...], ("of 3 numbers", lambda v: len(v) == 3)]
_Row = Annotated[tuple[Finite, ...], ("of 4 numbers [t, x, y, z]", lambda row: len(row) == 4)]
Waypoints = Annotated[tuple[_Row, ...], ("of one or more rows, t increasing", lambda rows: (
    len(rows) > 0 and all(a[0] < b[0] for a, b in zip(rows, rows[1:]))))]


def bad_value(key: str, where: str, what: str, value) -> ValidationError:
    """The error for value, that of key in where, which is not what."""
    return ValidationError(f"bad value for {key!r} in {where}: expected {what}, got {value!r}")


def convert(tp, value, key: str, where: str):
    """value, that of key in where, as tp: a type of _KINDS (a list is left for
    the caller to read), tuple[X, ...] for a list of X, Annotated[int, float
    or a tuple, (text, test)] for one that passes test, a Literal of texts for
    one of them, or object or a dataclass (a section) for any value the caller
    reads. A numpy array of one or more dimensions reads, and fails, as its
    list. A number must fit a float."""
    if type(value) is tp in (float, int, str):  # fast: a network has hundreds of consequents
        return value
    if tp is object or dataclasses.is_dataclass(tp):
        return value
    if isinstance(value, np.ndarray) and value.ndim:
        value = value.tolist()
    origin = typing.get_origin(tp)
    if origin is Annotated:
        kind, (text, test) = typing.get_args(tp)
        typed = convert(kind, value, key, where)
        if test(typed):
            return typed
        value, noun = (typed, _KINDS[kind][1]) if kind in _KINDS else (value, "a list")
        what = f"{noun} {text}"  # a number as typed, a list as given
    elif origin is tuple:
        element = typing.get_args(tp)[0]
        if isinstance(value, (list, tuple)):
            return tuple(convert(element, v, key, where) for v in value)
        what = "a list"
    elif origin is typing.Literal:
        if isinstance(value, str) and value in typing.get_args(tp):
            return value
        what = f"one of {', '.join(typing.get_args(tp))}"
    else:
        kind, what = _KINDS[tp]
        if isinstance(value, kind) and not (isinstance(value, bool) and tp is not bool):
            try:
                return tp(value)
            except OverflowError:  # an integer too large for a float
                pass
    raise bad_value(key, where, what, value)


def mapping(cfg, where: str) -> dict:
    if not isinstance(cfg, dict):
        raise ValidationError(f"{where} must be a mapping, got {type(cfg).__name__}")
    return cfg


def _from_file(tp) -> bool:
    element = typing.get_args(tp)[0] if typing.get_origin(tp) is tuple else tp
    choice_or_bounded = typing.get_origin(element) in (typing.Literal, Annotated)
    return choice_or_bounded or element in _KINDS or dataclasses.is_dataclass(tp)


@functools.cache
def _dataclass_keys(cls) -> tuple[dict, tuple[str, ...]]:
    """The keys of a section that dataclass cls reads, with their types, and the
    required ones: each init field of a type of _KINDS or a Literal, a tuple of
    one, or a dataclass. Cached, since typing.get_type_hints evaluates each
    annotation anew on every call."""
    hints = typing.get_type_hints(cls, include_extras=True)
    fields = [f for f in dataclasses.fields(cls) if f.init and _from_file(hints[f.name])]
    keys = {f.name: hints[f.name] for f in fields}
    unset = dataclasses.MISSING
    required = tuple(f.name for f in fields if f.default is f.default_factory is unset)
    return keys, required


def read_section(spec, cfg, where: str, raw: dict | None = None) -> dict:
    """The values cfg, the section where of a file, sets, each converted to its
    key's type. spec is a dataclass (_dataclass_keys) or a record's {key: type},
    each key required; raw is the {key: type} of optional keys spec does not
    list. An unknown key fails first, so that a record of an older format fails
    on one of its keys."""
    cfg = mapping(cfg, where)
    keys, required = (spec, spec) if isinstance(spec, dict) else _dataclass_keys(spec)
    keys = keys | (raw or {})
    unknown = [key for key in cfg if key not in keys]
    if unknown:
        raise ValidationError(
            f"unknown key {unknown[0]!r} in {where}; expected one of {', '.join(sorted(keys))}"
        )
    values = {key: convert(keys[key], value, key, where) for key, value in cfg.items()}
    for key in required:
        if key not in cfg:
            raise ValidationError(f"missing key {key!r} in {where}")
    return values


def type_fields(section, where: str) -> None:
    """Converts each field of section, a frozen dataclass, as read_section converts
    its key in where: a section built in code is typed, and fails, as in a file.
    A field that holds a section holds one built already, as a file's mapping is."""
    for key, tp in _dataclass_keys(type(section))[0].items():
        value = getattr(section, key)
        if dataclasses.is_dataclass(tp) and not isinstance(value, tp):
            raise bad_value(key, where, f"a {tp.__name__}", value)
        object.__setattr__(section, key, convert(tp, value, key, where))
