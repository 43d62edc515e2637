"""Shared exception types; ``read_input`` and ``write_output``, the one reader
of input files and the one writer of output files; and ``csv_text``, the text
of every CSV file written but ``loss.csv`` (``train.loss_curve_rows``, LF line ends)."""

from __future__ import annotations

import csv
import io
from pathlib import Path


class MoamaError(Exception):
    """Base class for package errors."""


class ConfigError(MoamaError):
    """Invalid configuration file, key, or value."""


class DataError(MoamaError):
    """Unusable input data (missing columns, unreadable files, bad labels)."""


class SmilesError(DataError):
    """SMILES grammar violation; carries the offset of the problem, a
    character index into the string (not a byte offset)."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class NumericsError(MoamaError, ArithmeticError):
    """Non-finite value produced by the numerics core."""


def read_input(path, what: str, error: type[MoamaError] = DataError,
               text: bool = True) -> str | bytes:
    """Read one input file: its bytes, or with ``text`` those bytes as strict
    UTF-8, less one leading byte-order mark, with no newline translation. An
    ``OSError``, or a ``ValueError`` (a NUL in the path, invalid UTF-8),
    becomes ``error`` naming the path.
    """
    try:
        data = Path(path).read_bytes()
        return data.decode("utf-8-sig") if text else data
    except (OSError, ValueError) as e:
        raise error(f"cannot read {what} {path}: {e}") from e


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


def csv_text(header, rows) -> str:
    """``header`` and ``rows`` as CSV text, with the ``csv`` module's CRLF line ends."""
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    return buf.getvalue()
