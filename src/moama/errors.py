"""Shared exception types; ``read_input`` and ``write_output``, the one reader
of input files and the one writer of output files; ``csv_text``, the text of
every CSV file written (``loss.csv`` with LF line ends,
``train.loss_curve_rows``); and ``ascii_number``, the one reader of a number
in a config value, rule file or label cell."""

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
        self.message = message
        self.offset = offset

    def __reduce__(self):
        # the default would call SmilesError(str(self)), which lacks the offset
        return type(self), (self.message, self.offset)


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
    """``header`` and ``rows`` as CSV text, with the ``csv`` module's CRLF line
    ends. The cells are raw values, written by the one rule of ``csv.writer``:
    a float (a numpy float too) as ``float.__repr__`` writes it, None as an
    empty cell, any other value as ``str`` writes it."""
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    return buf.getvalue()


def ascii_number(text: str, kind: type[int] | type[float]) -> int | float:
    """``kind(text)`` of ASCII ``text`` without ``_``. ``int()`` and
    ``float()`` also read other scripts' digits, Unicode spaces and ``_``
    digit separators, which no input spells a number with here. Text that
    ``kind`` does not read, or that is not ASCII or holds a ``_``, is a
    ``ValueError``."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII {kind.__name__}: {text!r}")
    return kind(text)
