"""Strict JSON file formats: exact keys and base64 columns.

Checkpoints (:mod:`provlens.model`) and dataset files
(:mod:`provlens.data`) are JSON objects whose binary fields are base64
columns: one base64 string of an array's raw little-endian bytes in C
order, with no shape or dtype field, because the file's version and its
other fields fix both. A column decodes without building a Python object
per item. Each reader checks that every object holds exactly the keys its
writer writes, and raises its own error type naming the file and the
field. Every JSON input (dataset, checkpoint, config and report files)
is read by :func:`read_json`. The text readers share one decimal reader
(:func:`_read_decimal`) and quote a bad token cut to its first
``_EXCERPT`` characters (:func:`_excerpt`).
"""

from __future__ import annotations

import base64
import json
import re
from pathlib import Path

import numpy as np

#: ASCII decimal digits with an optional sign, leading zeros apart
#: (``int`` also takes other scripts' digits and underscores)
_DECIMAL = re.compile(r"([+-]?)0*([0-9]+)")
#: digits of the int64 bounds
_I64_DIGITS = len(str(np.iinfo(np.int64).max))
#: characters of a bad token quoted in an error
_EXCERPT = 40


def read_json(path, what: str, error: type[ValueError]):
    """The JSON value in the file at ``path``; ``error`` naming ``what``
    and the file when its text is not UTF-8 or not JSON. That includes an
    integer literal past Python's 4,300-digit limit, which ``json.loads``
    refuses with a ValueError that names neither. A file that cannot be
    read raises its OSError."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:
        raise error(f"corrupt {what} {path}: {exc}") from exc


def encode_column(values, dtype: str) -> str:
    """``values`` as ``dtype`` (a little-endian or one-byte dtype), base64
    of the raw bytes in C order."""
    return base64.b64encode(np.asarray(values, dtype).tobytes()).decode("ascii")


def decode_column(text, dtype: str, what: str, error: type[ValueError]) -> np.ndarray:
    """The read-only 1-d ``dtype`` array that :func:`encode_column` wrote
    as ``text``; ``error`` naming ``what`` when ``text`` is not a string,
    not base64, or not a whole number of items."""
    if not isinstance(text, str):
        raise error(f"{what} is not a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:   # binascii.Error and non-ASCII text
        raise error(f"{what} is not base64: {exc}") from exc
    size = np.dtype(dtype).itemsize
    if len(raw) % size:
        raise error(f"{what} holds {len(raw)} bytes, not a whole number of "
                    f"{size}-byte items")
    return np.frombuffer(raw, dtype)


def require_keys(value, keys: set[str], what: str, error: type[ValueError]) -> dict:
    """``value`` if it is a JSON object with exactly ``keys``; otherwise
    ``error`` naming ``what`` and the missing or unknown keys."""
    if not isinstance(value, dict):
        raise error(f"{what} is not a JSON object")
    for problem, names in (("missing", keys - value.keys()),
                           ("unknown", value.keys() - keys)):
        if names:
            raise error(f"{what}: {problem} key(s) {', '.join(sorted(names))}")
    return value


def _read_decimal(text: str) -> int | None:
    """The integer that ``text`` writes in ASCII decimal digits, after an
    optional sign; None for any other text. Past 19 digits the value reads
    as 2^64 with its sign, outside the int64 range as the value itself is,
    so ``int`` (which refuses past 4,300 digits) never reads more than
    19."""
    match = _DECIMAL.fullmatch(text)
    if match is None:
        return None
    digits = match[2]
    value = int(digits) if len(digits) <= _I64_DIGITS else 1 << 64
    return -value if match[1] == "-" else value


def _excerpt(token: str) -> str:
    """The token quoted, cut to its first _EXCERPT characters."""
    if len(token) <= _EXCERPT:
        return repr(token)
    return f"{token[:_EXCERPT]!r}... ({len(token)} characters)"
