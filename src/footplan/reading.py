"""One reader for every input file: world, params, scenario and suite.

Each loader passes its own error class, a subclass of `InputError`, so a bad
file fails with the error its caller expects and the CLI exits 4 on any of
them. Every number is a finite JSON number: no booleans, no strings.
"""

from __future__ import annotations

import json
import math

from .geometry import Pose2


class InputError(ValueError):
    """Raised when an input document is malformed."""


def decoded(document, error: type[InputError]):
    """`document` decoded from JSON text or bytes; any other value as given."""
    if not isinstance(document, (str, bytes)):
        return document
    try:
        return json.loads(document)
    except (ValueError, RecursionError) as exc:
        raise error(f"invalid JSON: {exc}") from None


def number(value, what: str, error: type[InputError], positive: bool = False) -> float:
    """A finite JSON number as a float, above zero when `positive`."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise error(f"{what} must be a number, got {value!r}")
    try:
        result = float(value)
    except OverflowError:
        raise error(f"{what} must be a number, got {value!r}") from None
    if not math.isfinite(result):
        raise error(f"{what} must be finite, got {value!r}")
    if positive and not result > 0:
        raise error(f"{what} must be above zero, got {result!r}")
    return result


def integer(value, what: str, error: type[InputError], positive: bool = False) -> int:
    """A JSON integer: not a float, however whole, and not a boolean."""
    if not isinstance(value, int) or isinstance(value, bool) or (positive and value < 1):
        kind = "a positive integer" if positive else "an integer"
        raise error(f"{what} must be {kind}, got {value!r}")
    return value


def numbers(value, count: int, what: str, error: type[InputError]) -> list[float]:
    """A list of exactly `count` finite numbers, such as a pose [x, y, yaw]."""
    if not isinstance(value, (list, tuple)) or len(value) != count:
        raise error(f"{what} must be a list of {count} numbers, got {value!r}")
    return [number(v, what, error) for v in value]


def pose(value, what: str, error: type[InputError]) -> Pose2:
    """A pose [x, y, yaw]."""
    return Pose2(*numbers(value, 3, what, error))


def points(value, what: str, error: type[InputError]) -> list[tuple[float, float]]:
    """A vertex list [[x, y], ...]."""
    if not isinstance(value, (list, tuple)):
        raise error(f"{what} must be a list of [x, y] vertices, got {value!r}")
    return [tuple(numbers(p, 2, f"{what} vertex {i}", error)) for i, p in enumerate(value)]
