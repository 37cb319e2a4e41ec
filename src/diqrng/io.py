"""Canonical serialization, atomic file writes and text reads.

Every file the package emits goes through these helpers so that two runs
with the same inputs produce byte-identical output: JSON keys are sorted
and writes land via a temp file plus rename.  Presentation files round
floats to 6 significant digits; files the package reads back (certificates,
configs, counts records) are written with ``precise=True`` so every float
survives the round trip exactly.  A file is written from a buffer the caller
already holds (``atomic_write_bytes`` takes any contiguous buffer, such as a
numpy array) or from buffers made one after another (``atomic_write_pieces``)
or, for JSON, streamed from the encoder by ``atomic_write_json``, so no
whole-file string is built; ``canonical_json`` is the same text as one
string.  Every file the package reads goes through ``read_text`` and every
JSON text through ``parse_json``, so the error names a file that does not
decode or parse; the ``_json_*`` readers type-check values.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from itertools import islice
from typing import IO, Any, Callable, Iterable, Mapping


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
        # a list of leaves, such as a counts record's memory, is not copied:
        # the encoder writes a tuple as it writes a list
        if all(type(v) in _LEAVES for v in obj):
            return obj
        return [v if type(v) in _LEAVES else _canonicalize(v, precise) for v in obj]
    return obj


def _refuse(o: Any) -> Any:
    raise TypeError(f"not JSON-serializable: {type(o).__name__}")


def _encoder() -> json.JSONEncoder:
    """The one encoder behind `canonical_json` and `atomic_write_json`."""
    return json.JSONEncoder(sort_keys=True, separators=(",", ": "), indent=1,
                            allow_nan=False, default=_refuse)


def canonical_json(obj: Any, *, precise: bool = False) -> str:
    """Serialize with sorted keys; floats at 6 significant digits by default.

    ``precise=True`` keeps every float at full precision (shortest
    round-trip repr) for files that are read back and must reproduce the
    original values exactly.  Infinities serialize as the strings
    "inf"/"-inf" either way so the output stays within strict JSON.
    """
    return _encoder().encode(_canonicalize(obj, precise))


# encoder chunks joined per write: about one chunk per scalar, so a batch
# is tens of kilobytes
_JSON_BATCH = 1 << 12


def _atomic_write(path: str | os.PathLike, write: Callable[[IO], Any], mode: str,
                  **open_kwargs: Any) -> None:
    """`write(fh)` into a temp file renamed onto path; on any error the temp goes."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, mode, **open_kwargs) as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write text to path via temp file + rename in the same directory."""
    _atomic_write(path, lambda fh: fh.write(text), "w", encoding="utf-8", newline="\n")


def atomic_write_bytes(path: str | os.PathLike, data: Any) -> None:
    """Write a bytes-like buffer (bytes or a contiguous numpy array) to path.

    Via temp file + rename in the same directory; the buffer is not copied.
    """
    _atomic_write(path, lambda fh: fh.write(data), "wb")


def atomic_write_pieces(path: str | os.PathLike, pieces: Iterable[Any]) -> None:
    """Write each bytes-like buffer that `pieces` yields to path, in order.

    Via temp file + rename, so a piece made as the file is written need not
    outlive its write; an error while making one leaves the target untouched.
    """
    def write(fh: IO) -> None:
        for piece in pieces:
            fh.write(piece)

    _atomic_write(path, write, "wb")


def atomic_write_json(path: str | os.PathLike, obj: Any, *, precise: bool = False) -> None:
    """Write `canonical_json(obj, precise=precise) + "\n"` to path, streamed.

    The encoder's chunks go to the temp file a batch at a time, so the
    whole text never exists as one string.  An encoding error (a NaN, a
    value that is not JSON) raises as `canonical_json` would and leaves the
    target untouched.
    """
    def write(fh: IO) -> None:
        chunks = _encoder().iterencode(_canonicalize(obj, precise))
        while batch := list(islice(chunks, _JSON_BATCH)):
            fh.write("".join(batch))
        fh.write("\n")

    _atomic_write(path, write, "w", encoding="utf-8", newline="\n")
