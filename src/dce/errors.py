"""Exception types shared across the package, and the readers of input files.

Each error carries a short machine-readable ``code`` so callers (and the CLI)
can branch on the failure class without parsing messages, and ``row``, the
1-based row of the source file it was found on, when there is one.

Every CSV and JSON file the package reads is decoded here, by ``read_csv``
and ``read_json``: these are the only places that turn a file's decoding
faults (bytes that are not UTF-8, malformed CSV or JSON, rows of the wrong
width) into typed errors. Both drop a leading UTF-8 byte-order mark.
"""

from __future__ import annotations

import csv
import json
import numbers
from pathlib import Path

__all__ = ["DceError", "SchemaError", "DesignError", "DatasetError",
           "EstimationError", "SimulationError", "PostestError"]


class DceError(Exception):
    """Base class for all package errors."""

    def __init__(self, code: str, message: str, row: int | None = None):
        message = message if row is None else f"{message} (row {row})"
        super().__init__(message)
        self.code = code
        self.message = message
        self.row = row

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


class SchemaError(DceError):
    """Invalid experiment schema or parameter lookup."""


class DesignError(DceError):
    """Design generation or blocking failure."""


class DatasetError(DceError):
    """Choice data ingestion or validation failure."""


class EstimationError(DceError):
    """Estimator precondition or numerical failure."""


class SimulationError(DceError):
    """Invalid synthetic-data configuration."""


class PostestError(DceError):
    """Post-estimation request that cannot be honored."""


def _integer(error: type[DceError], code: str, name: str, value, least: int) -> int:
    """``value`` as an int if it is an integer (numpy's included, bool not)
    of at least ``least``; else ``error(code)`` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise error(code, f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _real(value) -> bool:
    """Whether ``value`` is a real number, numpy's included and bool not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def non_utf8_line(path: str | Path) -> int | None:
    """1-based line of the first byte of a file that is not UTF-8, or None
    if the whole file decodes."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as e:
        return data.count(b"\n", 0, e.start) + 1
    return None


def read_csv(path: str | Path, error: type[DceError], empty_code: str,
             required: tuple[str, ...]) -> list[dict[str, str]]:
    """The data rows of a UTF-8 CSV, each a header -> stripped value dict.

    Blank lines are skipped; data row i (0-based) is file row i + 2. Faults
    raise ``error``: ``empty_code`` if there is no header row, ``bad_encoding``
    or ``bad_csv`` with the row, ``bad_csv`` for a row whose field count is not
    the header's, and then ``missing_column`` if a ``required`` column is
    absent. A file with no data rows is returned as such before its columns
    are checked; what that means is the caller's to say.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next((fields for fields in reader if fields), None)
            if header is None:
                raise error(empty_code, f"{path}: no header row")
            width, rows = len(header), []
            for fields in reader:
                if not fields:
                    continue
                if len(fields) != width:
                    raise error("bad_csv", f"{path}: {len(fields)} fields where the header "
                                           f"has {width}", row=len(rows) + 2)
                rows.append(dict(zip(header, [v.strip() for v in fields])))
    except UnicodeDecodeError:
        raise error("bad_encoding", f"{path}: not UTF-8 text", row=non_utf8_line(path)) from None
    except csv.Error as exc:
        raise error("bad_csv", f"{path}: {exc}", row=reader.line_num) from None
    missing = [c for c in required if c not in header]
    if rows and missing:
        raise error("missing_column", f"{path}: missing columns {missing}")
    return rows


def read_json(path: str | Path, code: str):
    """The JSON value in a UTF-8 file; faults raise SchemaError(``code``)."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except UnicodeDecodeError:
        raise SchemaError(code, f"{path}: not UTF-8 text") from None
    except (json.JSONDecodeError, RecursionError) as exc:  # nesting past the stack
        raise SchemaError(code, f"{path}: malformed JSON: {exc!r}") from exc
