"""The one CSV format shared by every photonmix file.

A table is an optional header line of column names followed by one row of
comma-separated numbers per line, UTF-8.  Detector tag files are tables
without a header.  A written table holds one numeric type and prints each
value as Python's ``repr``, so floats read back exactly and integers print
without a decimal point.  Readers check the header, skip blank lines and
report a malformed row with its 1-based line number; ``refuse_rows`` does so
for a row that parses but breaks a reader's own rule.

``read_table`` parses rows with ``np.loadtxt``, which fills the array in C
without a Python object per field.  It hands ``loadtxt`` the file's path:
given a path, ``loadtxt`` reads the text in large chunks in C, where a file
object makes it take one Python string per line, at nearly twice the time.
A file that ``loadtxt`` turns down (blank lines holding whitespace, ``#``
lines, a field outside int64, a bad row, non-UTF-8 bytes, digits only
Python reads) goes to a line-by-line loop instead.  So do two kinds of
input ``loadtxt`` would misread from a path: a name ending in a suffix
numpy decompresses (``.gz``, ``.bz2``, ``.xz``, ``.lzma``), since a table is
plain UTF-8 text and such a file must fail as one, and anything but a
regular file, such as a pipe, which cannot be opened twice.  The loop reads
every file ``loadtxt`` reads, to the same values, and it alone raises
diagnostics: every error message and line number comes from it, whichever
path met the file first.
"""

from __future__ import annotations

import os
import warnings
from itertools import islice

import numpy as np

from .errors import DataFormatError

#: Rows converted to text at a time, so long tag tables write in bounded memory.
_WRITE_BLOCK = 65_536

#: Suffixes that ``np.loadtxt`` decompresses when it opens a path; such files go to the loop.
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def write_table(path, header, columns) -> None:
    """Write equal-length ``columns`` as rows under ``header`` (``None``: no header line)."""
    table = np.column_stack(columns)
    row = ",".join(["%r"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        for start in range(0, len(table), _WRITE_BLOCK):
            block = table[start : start + _WRITE_BLOCK]
            # one %-format per block: several times faster than formatting row by row
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def read_table(path, headers, kind=float) -> tuple[tuple[str, ...] | None, np.ndarray]:
    """Read a table whose header is one of the name tuples in ``headers``.

    ``headers=None`` reads a table with no header line; its first row sets
    the column count.  Fields convert with ``kind`` (``int`` stays exact
    beyond 2**53 and must fit in 64 bits) and must be finite.  Returns the
    header and the rows as an array of shape (rows, columns).

    ``np.loadtxt`` parses the file from its path, after the header line has
    been checked on a file of its own.  The path is joined to the working
    directory, so that numpy never takes it for a URL (a relative
    ``http://host/t.csv`` names local directories), and not normalized, so
    that ``link/..`` means what it means to ``open``.  When ``loadtxt``
    raises, or returns no rows or a width other than the header's,
    ``_read_table_loop`` reads the file again and gives the result or the
    ``DataFormatError``; the non-finite check is the same on both paths.
    """
    dtype = np.int64 if kind is int else float
    name = os.fspath(path)
    if name.endswith(_COMPRESSED_SUFFIXES) or not os.path.isfile(name):
        return _read_table_loop(path, headers, kind)
    try:
        with open(path, encoding="utf-8") as fh:
            header = _read_header(fh, path, headers)
        with warnings.catch_warnings():  # an empty table is left to the loop
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(
                os.path.join(os.getcwd(), name),
                delimiter=",",
                dtype=dtype,
                comments=None,
                skiprows=int(header is not None),
                ndmin=2,
                encoding="utf-8",
            )
    except (ValueError, OverflowError):  # DataFormatError and UnicodeDecodeError are ValueErrors
        return _read_table_loop(path, headers, kind)
    if not len(rows) or (header is not None and rows.shape[1] != len(header)):
        return _read_table_loop(path, headers, kind)
    _check_finite(path, headers, rows)
    return header, rows


def _read_header(fh, path, headers) -> tuple[str, ...] | None:
    """Read and check the header line of ``fh``, open on ``path``; ``None`` when ``headers`` is ``None``."""
    if headers is None:
        return None
    first = fh.readline().strip()
    header = tuple(c.strip() for c in first.split(","))
    if header not in headers:
        expected = " or ".join(repr(",".join(h)) for h in headers)
        raise DataFormatError(f"expected header {expected}, got {first!r}", line=1, path=path)
    return header


def _read_table_loop(path, headers, kind):
    """``read_table`` one line at a time: the reader of every file ``np.loadtxt`` turns down."""
    try:
        with open(path, encoding="utf-8") as fh:
            header = _read_header(fh, path, headers)
            width = None if header is None else len(header)
            vals: list = []  # one flat list, reshaped once: much faster than a list per row
            for line in fh:
                cols = line.split(",")
                if width is None and line.strip():
                    width = len(cols)  # the first row of a headerless table
                try:
                    if len(cols) != width:
                        raise ValueError(f"expected {width} columns, got {len(cols)}")
                    vals.extend(map(kind, cols))
                except ValueError as exc:  # a blank line is skipped
                    if line.strip():
                        problem = exc if len(cols) != width else f"expected {kind.__name__} fields"
                        at = _row_line(path, headers, len(vals) // width)
                        raise DataFormatError(f"{problem} in row {line.strip()!r}", line=at, path=path) from None
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"is not UTF-8 text: {exc}", path=path) from None
    try:
        rows = np.array(vals, dtype=kind).reshape(-1, width or 1)
    except OverflowError:  # an int field beyond the 64-bit range
        limits = np.iinfo(np.int64)
        big = next(i for i, v in enumerate(vals) if not limits.min <= v <= limits.max)
        at = _row_line(path, headers, big // width)
        raise DataFormatError("integer outside the 64-bit range", line=at, path=path) from None
    _check_finite(path, headers, rows)
    return header, rows


def _check_finite(path, headers, rows) -> None:
    """Refuse the first row holding a ``nan`` or an infinity.

    An int64 table cannot hold either, so only a float table is scanned.
    """
    if rows.dtype.kind == "f":
        refuse_rows(path, headers, ~np.isfinite(rows).all(axis=1), lambda _: "non-finite value")


def refuse_rows(path, headers, bad, describe) -> None:
    """Raise ``DataFormatError`` at the file line of the first data row where ``bad`` holds.

    ``bad`` holds one truth value per data row of the table at ``path``, read with ``headers``;
    the message is ``describe(row)`` of that row's 0-based index.  Every reader refuses a row this way.
    """
    if np.any(bad):
        row = int(np.argmax(bad))
        raise DataFormatError(describe(row), line=_row_line(path, headers, row), path=path)


def _row_line(path, headers, row: int) -> int | None:
    """1-based file line of data row ``row`` (0-based) of a table; rescans the file, for error paths.

    ``None`` when the rescan does not reach the row: a pipe reads empty the second time.
    """
    with open(path, encoding="utf-8") as fh:
        data = (n for n, line in enumerate(fh, start=1) if line.strip() and (headers is None or n > 1))
        return next(islice(data, row, None), None)
