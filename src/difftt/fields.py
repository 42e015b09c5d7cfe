"""The rules every config dataclass checks its fields by, and the one that
every file reader checks its format version by, each stated once and written
as "fail unless in range", so that NaN fails it."""

from __future__ import annotations

import dataclasses
import numbers

# annotation (a string, under `from __future__ import annotations`) -> (types, kind);
# bool is an Integral, and only a bool field takes one
_KINDS = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a real number"),
          "bool": (bool, "true or false"), "str": (str, "a string"),
          "list": ((list, tuple), "a list"), "dict": (dict, "an object")}


def _has_kind(value, annotation: str) -> bool:
    """The kind rule: ``value`` is of the kind ``annotation`` names."""
    return isinstance(value, _KINDS[annotation][0]) and (
        annotation == "bool" or not isinstance(value, bool))


def check_fields(config, at_least: dict | None = None, unit: tuple[str, ...] = ()):
    """Raise ``ValueError`` naming ``Class.field`` unless every field of the
    dataclass ``config`` holds its annotated kind (numpy numbers included, a
    bool only in a bool field), each field in ``at_least`` is >= its bound
    and each field in ``unit`` lies in [0, 1]."""
    name = type(config).__name__
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if not _has_kind(value, f.type):
            raise ValueError(f"{name}.{f.name}={value!r}: type {type(value).__name__} is "
                             f"not supported; must be {_KINDS[f.type][1]}")
    for field, low in (at_least or {}).items():
        value = getattr(config, field)
        if not value >= low:
            raise ValueError(f"{name}.{field}={value}: must be >= {low}")
    for field in unit:
        value = getattr(config, field)
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name}.{field}={value}: must be in [0, 1]")


def check_version(where: str, what: str, value, expected: int):
    """Raise ``ValueError`` naming ``where`` and ``value`` unless the file
    version ``value`` is the integer ``expected`` by the kind rule: ``true``,
    ``1.0`` and ``"1"`` are not the version 1."""
    if not (_has_kind(value, "int") and value == expected):
        raise ValueError(f"{where}: unsupported {what} {value!r}")


def check_counts(key: str, values, length: int | None = None):
    """Raise ``ValueError`` unless ``values`` is a list of non-negative
    integers by the kind rule, ``length`` of them when given."""
    if not (isinstance(values, (list, tuple)) and (length is None or len(values) == length)
            and all(_has_kind(v, "int") and v >= 0 for v in values)):
        what = f"{length} non-negative integers" if length else "non-negative integers"
        raise ValueError(f"{key} must be {what}, got {values!r}")
