"""Shared exception types, and the one writer of output files."""

from __future__ import annotations

from pathlib import Path


class MoamaError(Exception):
    """Base class for package errors."""


class ConfigError(MoamaError):
    """Invalid configuration file, key, or value."""


class DataError(MoamaError):
    """Unusable input data (missing columns, unreadable files, bad labels)."""


class SmilesError(DataError):
    """SMILES grammar violation; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class NumericsError(MoamaError, ArithmeticError):
    """Non-finite value produced by the numerics core."""


def write_output(path, data: str | bytes, what: str = "file") -> None:
    """Write one output file: a ``str`` as UTF-8 with no newline translation,
    ``bytes`` as they are. An ``OSError`` becomes a ``DataError`` naming the path.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    try:
        Path(path).write_bytes(data)
    except OSError as e:
        raise DataError(f"cannot write {what} {path}: {e.strerror or e}") from e
