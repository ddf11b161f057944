"""Checked reading of the JSON and JSON Lines files the package takes in,
and the one writer of its indented JSON outputs.

Each converter keeps Python's own conversion for the values it accepts and
raises the caller's error class and message for any other, including the
``Infinity`` and ``1e999`` that json reads and ``int()`` cannot convert.

``read_jsonl`` decodes each line with one module-level decoder's
``raw_decode``, without the type, BOM and whitespace checks ``json.loads``
wraps around the same scan. A line it cannot take whole goes through
``json.loads`` again, so a bad line's error keeps json's own text.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterator

import numpy as np

from wsodkit.errors import DataError, ParseError, ValidationError

# Deep nesting, such as ten thousand "[", makes json.loads recurse too far.
_UNPARSABLE = (ValueError, RecursionError)
_NOT_A_NUMBER = (TypeError, ValueError, OverflowError)
# json.loads's decoder, called without its wrapper: the lines are stripped,
# so a value that ends where its line ends is what json.loads returns.
_RAW_DECODE = json.JSONDecoder().raw_decode


def read_json(path: str | Path, what: str, error=DataError, malformed=ParseError):
    """Parse one JSON document: ``error`` if unreadable, ``malformed`` if bad."""
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise error(f"cannot read {what} {path}: {e}") from e
    try:
        return json.loads(raw.decode("utf-8"))
    except _UNPARSABLE as e:
        raise malformed(f"malformed {what} {path}: {e}") from e


def write_json(path: str | Path, obj) -> None:
    """Write ``obj`` as JSON with sorted keys, indented by 2, newline-ended."""
    Path(path).write_text(
        json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def read_jsonl(path: str | Path, what: str, error=DataError) -> Iterator[tuple]:
    """Yield ``(lineno, obj)`` per line; a blank or bad line is a ParseError."""
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as e:
        raise error(f"cannot read {what} {path}: {e}") from e
    lineno = 0
    with fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    raise ParseError(f"{path}: line {lineno}: empty line")
                try:
                    obj, end = _RAW_DECODE(line)
                except _UNPARSABLE:
                    end = -1
                if end != len(line):
                    # A BOM, extra data or a bad value: json.loads raises
                    # for the line, with its own message.
                    try:
                        obj = json.loads(line)
                    except _UNPARSABLE as e:
                        raise ParseError(f"{path}: line {lineno}: {e}") from e
                yield lineno, obj
        except UnicodeDecodeError as e:
            raise ParseError(f"{path}: not UTF-8 after line {lineno}: {e}") from e


def as_type(value, kind, message: str, error=ValidationError):
    """``value`` itself if it is a ``kind`` (a type or tuple of types)."""
    if not isinstance(value, kind):
        raise error(message)
    return value


def require(obj, key: str, message: str, error=ValidationError):
    """``obj[key]`` when ``obj`` is a JSON object holding ``key``."""
    if not isinstance(obj, dict) or key not in obj:
        raise error(message)
    return obj[key]


def as_int(value, message: str, error=ValidationError) -> int:
    """``int(value)``, where that converts and lies in a double's range.

    A boolean or a float with a fractional part is not an integer, so it is
    refused rather than truncated; an integral float such as ``2.0`` passes.
    """
    if isinstance(value, bool) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise error(message)
    try:
        out = int(value)
        float(out)  # a larger integer overflows the float arithmetic it meets
    except _NOT_A_NUMBER as e:
        raise error(message) from e
    return out


def as_number(value, message: str, error=ValidationError) -> int | float:
    """``value`` itself if it is a JSON number: an int or a float, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(message)
    return value


def as_float(value, message: str, error=ValidationError) -> float:
    """``float(value)``, for the values Python's float() converts."""
    try:
        return float(value)
    except _NOT_A_NUMBER as e:
        raise error(message) from e


def as_finite(value, message: str, error=ValidationError) -> float:
    """``float(value)`` when that is a finite number."""
    out = as_float(value, message, error)
    if not math.isfinite(out):
        raise error(message)
    return out


def as_array(value, message: str, error=ValidationError) -> np.ndarray:
    """A float64 array of nested JSON numbers (any shape, not checked).

    The array takes the dtype NumPy infers, and anything but an integer or
    float array raises ``error``: strings, all-boolean lists, nulls, objects
    and ragged nesting. Integers too large for int64 infer an object array,
    which passes when every element is a number that a double holds. Gap:
    NumPy infers float64 for booleans mixed with numbers, so ``[true, 2.0]``
    loads as ``[1.0, 2.0]``.
    """
    try:
        arr = np.array(value)
        if arr.dtype.kind == "O" and all(type(v) in (int, float) for v in arr.flat):
            arr = arr.astype(np.float64)
    except _NOT_A_NUMBER as e:
        raise error(message) from e
    if arr.dtype.kind not in "iuf":
        raise error(message)
    return arr.astype(np.float64, copy=False)
