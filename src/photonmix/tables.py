"""The one CSV format shared by every photonmix file.

A table is an optional header line of column names followed by one row of
comma-separated numbers per line, UTF-8.  Detector tag files are tables
without a header.  A written table holds one numeric type and prints each
value as Python's ``repr``, so floats read back exactly and integers print
without a decimal point.  Readers check the header, skip blank lines and
report a malformed row with its 1-based line number.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from .errors import DataFormatError

#: Rows converted to text at a time, so long tag tables write in bounded memory.
_WRITE_BLOCK = 65_536


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
    """
    header = width = None
    try:
        with open(path, encoding="utf-8") as fh:
            if headers is not None:
                first = fh.readline().strip()
                header = tuple(c.strip() for c in first.split(","))
                if header not in headers:
                    expected = " or ".join(repr(",".join(h)) for h in headers)
                    raise DataFormatError(f"expected header {expected}, got {first!r}", line=1)
                width = len(header)
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
                        at = row_line(path, headers, len(vals) // width)
                        raise DataFormatError(f"{problem} in row {line.strip()!r}", line=at) from None
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path} is not UTF-8 text: {exc}") from None
    try:
        rows = np.array(vals, dtype=kind).reshape(-1, width or 1)
    except OverflowError:  # an int field beyond the 64-bit range
        limits = np.iinfo(np.int64)
        big = next(i for i, v in enumerate(vals) if not limits.min <= v <= limits.max)
        at = row_line(path, headers, big // width)
        raise DataFormatError("integer outside the 64-bit range", line=at) from None
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise DataFormatError("non-finite value", line=row_line(path, headers, bad[0]))
    return header, rows


def row_line(path, headers, row: int) -> int:
    """1-based file line of data row ``row`` (0-based) of a table; rescans the file, for error paths."""
    with open(path, encoding="utf-8") as fh:
        data = (n for n, line in enumerate(fh, start=1) if line.strip() and (headers is None or n > 1))
        return next(islice(data, row, None))
