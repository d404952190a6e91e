"""Input rules: read a JSON file's object, check an object's keys and values, and
check an integer argument.

A spec maps each allowed key to ``(valid,)`` or, if the key is optional,
``(valid, default)``, where ``valid`` is one of the predicates below.
``check_int`` and ``check_size`` are the one integer rule of the package's
entry points: a Python or NumPy integer, not a bool, at least an optional
lower bound and, for a size, below 2^63.  They raise one of three messages,
``<name> must be an integer, got <v>``, ``<name> must be >= <low>, got <v>``
and ``<name> must be below 2**63, got <v>``.
"""

from __future__ import annotations

import json
import numbers


def is_int(x) -> bool:
    """A Python or NumPy integer, not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def check_int(value, name: str, *low) -> None:
    """Raise ValueError, naming the argument ``name``, unless ``value`` is ``is_int`` and,
    if a lower bound ``low`` is given, at least that bound."""
    if not is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low and value < low[0]:
        raise ValueError(f"{name} must be >= {low[0]}, got {value!r}")


def check_size(value, name: str, *low) -> None:
    """``check_int``, and below 2^63: no array, list or range is longer."""
    check_int(value, name, *low)
    if value >= 2**63:
        raise ValueError(f"{name} must be below 2**63, got {value!r}")


def is_positive_int(x) -> bool:
    return is_int(x) and x > 0


def is_number(x) -> bool:
    return is_int(x) or isinstance(x, float)


def is_numbers(x) -> bool:
    return isinstance(x, list) and all(is_number(v) for v in x)


def is_str(x) -> bool:
    return isinstance(x, str)


def is_list(x) -> bool:
    return isinstance(x, list)


def is_object(x) -> bool:
    return isinstance(x, dict)


def anything(x) -> bool:
    """Any value: its reader checks it, as for nested structure."""
    return True


KINDS = {
    is_int: "an integer",
    is_positive_int: "a positive integer",
    is_number: "a number",
    is_numbers: "a list of numbers",
    is_str: "a string",
    is_list: "a list",
    is_object: "an object",
}


def field(raw: dict, where: str, key: str, valid, *default):
    """``raw[key]``, or the default if one is given and the key is absent."""
    if key not in raw:
        if default:
            return default[0]
        raise ValueError(f"{where} is missing {key!r}")
    if not valid(raw[key]):
        raise ValueError(f"{where} {key!r} must be {KINDS[valid]}, got {raw[key]!r}")
    return raw[key]


def fields(raw: dict, where: str, spec: dict, *owner: str) -> dict:
    """Every key of ``spec`` with its checked value in ``raw``, or its default if absent.

    A key of ``raw`` that ``spec`` lacks, such as a misspelt one, is rejected
    as a key of the owner if one is given, else of ``where``.
    """
    for key in raw:
        if key not in spec:
            raise ValueError(f"{owner[0] if owner else where} has unexpected key {key!r}")
    return {key: field(raw, where, key, *rule) for key, rule in spec.items()}


def read_object(path: str, where: str) -> dict:
    """The JSON object in the file at ``path``; anything else raises ValueError."""
    with open(path) as fh:
        payload = json.load(fh)
    if not is_object(payload):
        raise ValueError(f"{where} must be a JSON object")
    return payload
