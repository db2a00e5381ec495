"""The one CSV format shared by every photonmix table.

A table is an optional header line of column names followed by one row of
comma-separated numbers per line, UTF-8.  A written table holds one numeric
type and prints each value as Python's ``repr``, so floats read back exactly
and integers print without a decimal point.  Readers check the header, skip
blank lines and report a malformed row with its 1-based line number.
"""

from __future__ import annotations

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


def read_table(path, headers) -> tuple[tuple[str, ...], np.ndarray]:
    """Read a table whose header is one of the name tuples in ``headers``.

    Returns the header and the rows as a float array of shape (rows, columns).
    """
    try:
        with open(path, encoding="utf-8") as fh:
            first = fh.readline().strip()
            header = tuple(c.strip() for c in first.split(","))
            if header not in headers:
                expected = " or ".join(repr(",".join(h)) for h in headers)
                raise DataFormatError(f"expected header {expected}, got {first!r}", line=1)
            rows = []
            for lineno, raw in enumerate(fh, start=2):
                line = raw.strip()
                if not line:
                    continue
                cols = line.split(",")
                if len(cols) != len(header):
                    raise DataFormatError(
                        f"expected {len(header)} columns, got {len(cols)}", line=lineno
                    )
                try:
                    rows.append([float(c) for c in cols])
                except ValueError:
                    raise DataFormatError(f"non-numeric row {line!r}", line=lineno) from None
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path} is not UTF-8 text: {exc}") from None
    return header, np.array(rows, dtype=float).reshape(-1, len(header))
