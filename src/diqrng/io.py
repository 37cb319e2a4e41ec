"""Canonical serialization, atomic file writes and text reads.

Every file the package emits goes through these helpers so that two runs
with the same inputs produce byte-identical output: JSON keys are sorted
and writes land via a temp file plus rename.  Presentation files round
floats to 6 significant digits; files the package reads back (certificates,
configs, counts records) are written with ``precise=True`` so every float
survives the round trip exactly.  Every file the package reads goes through
``read_text`` and every JSON text through ``parse_json``, so the error names a
file that does not decode or parse; the ``_json_*`` readers type-check values.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from typing import Any, Callable, Mapping


class DataFormatError(ValueError):
    """A record or file violates the documented schema."""


class DataIntegrityError(ValueError):
    """A record is well-formed but internally inconsistent."""


def read_text(path: str | os.PathLike, encoding: str = "utf-8") -> str:
    """The text of a file; one that does not decode raises DataFormatError naming it."""
    try:
        with open(path, "r", encoding=encoding) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{os.fspath(path)}: {exc}") from exc


def parse_json(text: str, source: str) -> Any:
    """The JSON value in `text`; a parse failure, too-deep nesting too, names `source`."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DataFormatError(f"{source}: not valid JSON: {exc}") from exc


def load_json(path: str | os.PathLike, build: Callable[[Any], Any]) -> Any:
    """`build` applied to a file's JSON value; every refusal names the file."""
    obj = parse_json(read_text(path), os.fspath(path))
    try:
        return build(obj)
    except (DataFormatError, DataIntegrityError) as exc:
        raise type(exc)(f"{os.fspath(path)}: {exc}") from exc


def _json_int(value: Any, name: str) -> int:
    """A JSON integer; bools and floats such as 2.7 are refused, not truncated."""
    if type(value) is not int:
        raise DataFormatError(f"{name} must be an integer, got {value!r}")
    return value


def _json_float(value: Any, name: str) -> float:
    """A JSON number as a float; strings and bools such as "0.3" or true are refused."""
    if type(value) not in (int, float):
        raise DataFormatError(f"{name} must be a number, got {value!r}")
    return float(value)


def _json_bool(value: Any, name: str) -> bool:
    """A JSON true or false; 0, 1 and strings such as "false" are refused."""
    if type(value) is not bool:
        raise DataFormatError(f"{name} must be true or false, got {value!r}")
    return value


def _known_keys(value: Any, keys: tuple[str, ...], name: str) -> None:
    """Refuse a non-object or an unknown key, such as a misspelt "lambd"."""
    if not isinstance(value, Mapping) or not set(value) <= set(keys):
        raise DataFormatError(f"{name} must be an object keyed by {keys}")


def round_sig(x: float, digits: int = 6) -> float:
    """Round to `digits` significant digits; leaves non-finite values alone."""
    if not math.isfinite(x) or x == 0.0:
        return x
    return float(f"{x:.{digits}g}")


def format_sig(x: float) -> str:
    """`x` as text at 6 significant digits, as report files and the CLI print it."""
    return f"{float(x):.6g}"


# exact types the walk hands back unchanged, checked before the call so a
# long list of strings or ints costs no call per element
_LEAVES = frozenset({str, int, bool, type(None)})


def _canonicalize(obj: Any, precise: bool) -> Any:
    """Floats rounded unless precise, infinities as strings, in one walk."""
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj if precise else round_sig(obj)
    if isinstance(obj, dict):
        return {k: v if type(v) in _LEAVES else _canonicalize(v, precise)
                for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [v if type(v) in _LEAVES else _canonicalize(v, precise) for v in obj]
    return obj


def canonical_json(obj: Any, *, precise: bool = False) -> str:
    """Serialize with sorted keys; floats at 6 significant digits by default.

    ``precise=True`` keeps every float at full precision (shortest
    round-trip repr) for files that are read back and must reproduce the
    original values exactly.  Infinities serialize as the strings
    "inf"/"-inf" either way so the output stays within strict JSON.
    """

    def _default(o: Any) -> Any:
        raise TypeError(f"not JSON-serializable: {type(o).__name__}")

    return json.dumps(_canonicalize(obj, precise), sort_keys=True, separators=(",", ": "),
                      indent=1, allow_nan=False, default=_default)


def _atomic_write(path: str | os.PathLike, data: str | bytes, mode: str,
                  **open_kwargs: Any) -> None:
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, mode, **open_kwargs) as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write text to path via temp file + rename in the same directory."""
    _atomic_write(path, text, "w", encoding="utf-8", newline="\n")


def atomic_write_bytes(path: str | os.PathLike, data: bytes) -> None:
    """Write bytes to path via temp file + rename in the same directory."""
    _atomic_write(path, data, "wb")
