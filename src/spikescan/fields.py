"""The one reading of a value from outside: config fields, energy-table entries and checkpoint records.

Each value is checked for its kind, then for its named range rule, and a record for its key set;
every refusal is a ``ValueError`` reading ``<where><key> must be <kind or rule>, got <value>``.  The
one type rule: a ``float`` takes an ``int`` too, and no number a ``bool`` (JSON ``true`` is no number).
"""

from __future__ import annotations

import functools
import sys
import types
import typing

# each range rule by its name in a message; NaN fails each test, and an int compares exactly, so 10**400 is not finite
_RULES = {">= 1": lambda v: v >= 1, ">= 0": lambda v: v >= 0, "in [0, 1)": lambda v: 0 <= v < 1,
          "finite": lambda v: abs(v) <= sys.float_info.max, "finite and > 0": lambda v: 0 < v <= sys.float_info.max,
          "finite and >= 0": lambda v: 0 <= v <= sys.float_info.max}
AT_LEAST_1, AT_LEAST_0, UNIT, FINITE, POSITIVE, NONNEGATIVE = _RULES
_KINDS = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}


@functools.cache
def field_types(cls) -> types.MappingProxyType:
    """A config dataclass's fields and the type each takes (``int`` for ``int | None``), shared read-only."""
    return types.MappingProxyType({k: (typing.get_args(t) or (t,))[0] for k, t in typing.get_type_hints(cls).items()})


def check(where: str, key: str, value, kind):
    """``value`` if it is what ``kind`` asks: a type, or a ``(type, rule)`` pair."""
    t, rule = kind if isinstance(kind, tuple) else (kind, None)
    if type(value) is not t and (isinstance(value, bool) or t is bool
                                 or not isinstance(value, (int, float) if t is float else t)):
        raise ValueError(f"{where}{key} must be {_KINDS[t]}, got {value!r}")
    if rule is not None and not _RULES[rule](value):
        raise ValueError(f"{where}{key} must be {rule}, got {value}")
    return value


def check_fields(obj, where: str, **rules: str) -> None:
    """Check each field of the dataclass ``obj`` for its type and the rule ``rules`` gives it."""
    for key, t in field_types(type(obj)).items():
        check(where, key, getattr(obj, key), (t, rules[key]))


def check_keys(where: str, record, keys) -> None:
    """Refuse a record whose keys are not ``keys``, naming the least odd one, unknown or missing."""
    odd = sorted(set(record) ^ set(keys))
    if odd:
        raise ValueError(f"{where}{'unknown' if odd[0] in record else 'missing'} field {odd[0]!r}")
