"""Error types shared across the toolkit.

Every raised error carries a stable ``code`` string so batch drivers and the
CLI can report machine-readable failures without parsing prose.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path
from typing import Callable, Mapping


class ToolkitError(Exception):
    """Base error with a stable machine-readable code; each subclass names its CLI ``exit_code``."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class InputError(ToolkitError):
    """Raised for malformed caller-supplied data."""

    exit_code = 1


class ConfigError(ToolkitError):
    """Raised for invalid configuration."""

    exit_code = 2


class InvariantError(ToolkitError):
    """Raised when an internal invariant breaks."""

    exit_code = 3


def read_file(path: str | Path, code: str, what: str, error: type[ToolkitError] = InputError, parse: Callable = str):
    """``parse`` of the file's UTF-8 text, the one way a file is read; a file that cannot be read, is not
    UTF-8, starts with a byte order mark or does not parse (nesting too deep included) fails with ``code``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        if text.startswith("\ufeff"):  # else kept as part of line 1 of a line-based file
            raise ValueError("starts with a UTF-8 byte order mark")
        return parse(text)
    except (OSError, ValueError, RecursionError) as exc:
        raise error(code, f"cannot read {what} {path}: {exc}")


# Typed readers for values decoded from outside JSON (records, config and
# vocabulary files). A value of the wrong JSON type fails with the caller's
# code and is never converted; a well-formed value comes back unchanged. The
# message is built only on failure, since records decode on the hot path, and
# shows the value through ``shown``.

_SHOWN_CHARS = 120


def cut(text: str) -> str:
    """``text`` cut to ``_SHOWN_CHARS`` characters, so that a line quoting an outside value stays short."""
    return text if len(text) <= _SHOWN_CHARS else text[:_SHOWN_CHARS] + "..."


def shown(value: object) -> str:
    """``repr(value)``, cut."""
    return cut(repr(value))


def is_finite_number(value: object) -> bool:
    """A JSON number, not a bool, whose float value is finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int past the float range
        return False


OPTIONAL_STRING = (str, type(None))  # the rule of a field holding a string or null (``str``: a string)


def read_record(raw: object, fields: Mapping[str, object], code: str, what: str, required=()) -> dict:
    """The fields of one outside record: ``raw`` must be an object holding every ``required`` key and no key
    outside ``fields``, which maps each field to its rule: ``str`` or ``OPTIONAL_STRING``, checked in place, None
    for any value, or a reader, called as ``reader(value, code, field)``. A field left out is left out."""
    if not isinstance(raw, dict):
        raise InputError(code, f"{what} must be an object, got {shown(raw)}")
    for key in required:
        if key not in raw:
            raise InputError(code, f"{what} needs a {key!r} field")
    record = {}
    for key, value in raw.items():  # a plain loop: records decode on the hot path
        try:
            rule = fields[key]
        except KeyError:
            raise InputError(code, f"{what} has unknown field {shown(key)}") from None
        if rule is not str and rule is not OPTIONAL_STRING:
            value = value if rule is None else rule(value, code, key)
        elif not isinstance(value, rule):
            raise InputError(code, f"{key} must be a string, got {shown(value)}")
        record[key] = value
    return record


def read_as(convert: Callable, reader: Callable) -> Callable:
    """``reader`` with its value passed through ``convert`` (``frozenset``, ``dict``)."""
    return lambda value, code, what: convert(reader(value, code, what))


def read_list(item: Callable) -> Callable:
    """A reader of a JSON list, each item passed through ``item``, as a tuple."""

    def read(value: object, code: str, what: str) -> tuple:
        if not isinstance(value, list):
            raise InputError(code, f"{what} must be a list, got {shown(value)}")
        return tuple(map(item, value))

    return read


def read_optional(reader: Callable) -> Callable:
    """``reader`` that reads ``null`` as None."""
    return lambda value, code, what: None if value is None else reader(value, code, what)


def read_object(value: object, code: str, what: str, error: type[ToolkitError] = InputError) -> dict:
    if not isinstance(value, dict):
        raise error(code, f"{what} must be an object, got {shown(value)}")
    return value


def read_string(value: object, code: str, what: str, error: type[ToolkitError] = InputError) -> str:
    if not isinstance(value, str):
        raise error(code, f"{what} must be a string, got {shown(value)}")
    return value


def read_strings(value: object, code: str, what: str, error: type[ToolkitError] = InputError) -> tuple[str, ...]:
    """A list of strings, as a tuple."""
    if isinstance(value, list):
        for item in value:  # a loop, not all(...): no generator on the hot path
            if not isinstance(item, str):
                break
        else:
            return tuple(value)
    raise error(code, f"{what} must be a list of strings, got {shown(value)}")


def read_number(value: object, code: str, what: str, error: type[ToolkitError] = InputError) -> float:
    if not is_finite_number(value):
        raise error(code, f"{what} must be a finite number, got {shown(value)}")
    return value


def read_int(value: object, code: str, what: str, error: type[ToolkitError] = InputError) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(code, f"{what} must be an integer, got {shown(value)}")
    return value


def check_count(value: int, code: str, name: str) -> None:
    """The count rule (``j_max``, ``top_k``, ``token_budget``, ``block_size``): an integer, not a bool, 1 to maxsize."""
    if not 1 <= read_int(value, code, name, ConfigError) <= sys.maxsize:
        bound = ">= 1" if value < 1 else f"<= {sys.maxsize}"
        raise ConfigError(code, f"{name} must be {bound}, got {shown(value)}")


def read_pair(value: object, code: str, what: str, error: type[ToolkitError] = InputError) -> tuple[float, float]:
    """A [low, high] pair of finite numbers with low <= high, as floats."""
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not (is_finite_number(value[0]) and is_finite_number(value[1]))
        or value[0] > value[1]
    ):
        raise error(code, f"{what} must be a finite [low, high] pair, got {shown(value)}")
    return (float(value[0]), float(value[1]))
