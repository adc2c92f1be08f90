"""Exception types shared across the package.

Each error carries a short machine-readable ``code`` so callers (and the CLI)
can branch on the failure class without parsing messages.
"""

from __future__ import annotations

from pathlib import Path


class DceError(Exception):
    """Base class for all package errors."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


class SchemaError(DceError):
    """Invalid experiment schema or parameter lookup."""


class DesignError(DceError):
    """Design generation or blocking failure."""


class DatasetError(DceError):
    """Choice data ingestion or validation failure.

    ``row`` is the 1-based data row in the source file when known.
    """

    def __init__(self, code: str, message: str, row: int | None = None):
        super().__init__(code, message if row is None else f"{message} (row {row})")
        self.row = row


class EstimationError(DceError):
    """Estimator precondition or numerical failure."""


class SimulationError(DceError):
    """Invalid synthetic-data configuration."""


class PostestError(DceError):
    """Post-estimation request that cannot be honored."""


def non_utf8_line(path: str | Path) -> int | None:
    """1-based line of the first byte of a file that is not UTF-8, or None
    if the whole file decodes. For naming the row a CSV reader failed on."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as e:
        return data.count(b"\n", 0, e.start) + 1
    return None
