"""The one table format of every CSV file the package writes or reads.

`#` comment lines (`# key=value` ones are metadata, the rest provenance text),
one line of comma-separated column names, then one row per sample.  Floats are
written as repr(float), so they read back exactly; integer and boolean columns as ints.
"""

from __future__ import annotations

import contextlib
import os
from itertools import islice

import numpy as np

BLOCK_ROWS = 1024  # rows turned into Python objects at a time, which bounds peak memory


def meta_line(key: str, *values) -> str:
    """`# key=v1 v2 ...`, each value formatted like a table cell."""
    cells = (str(int(v)) if isinstance(v, (int, np.integer)) else repr(float(v)) for v in values)
    return f"# {key}={' '.join(cells)}\n"


def write_table(path, header_lines, names, columns):
    """Write `header_lines`, the column `names`, then one row per sample; a stream stays open."""
    columns = [np.asarray(c) for c in columns]
    columns = [c.astype(np.int64) if c.dtype.kind in "bu" else c for c in columns]
    formats = [str if c.dtype.kind == "i" else repr for c in columns]
    opened = open(path, "w") if isinstance(path, (str, os.PathLike)) \
        else contextlib.nullcontext(path)
    with opened as fh:
        fh.writelines(header_lines)
        fh.write(",".join(names) + "\n")
        for start in range(0, len(columns[0]), BLOCK_ROWS):
            cells = [map(fmt, c[start:start + BLOCK_ROWS].tolist())
                     for fmt, c in zip(formats, columns)]
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def read_table(path, required_keys=(),
               required_columns=()) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """(metadata, data): the `# key=value` strings and the float columns by name.

    Raises ValueError when the column-name line is missing (no line, or a first
    non-comment line of numbers), a required metadata key or column is missing
    or a row is malformed.
    """
    metadata, names = {}, []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                key, sep, value = line[1:].strip().partition("=")
                if sep:
                    metadata[key] = value
            elif line.strip():
                names = line.strip().split(",")
                break
        if not names or any(map(_is_number, names)):
            raise ValueError(f"{path}: no column-name line before the data rows")
        missing = [k for k in required_keys if k not in metadata]
        if missing:
            raise ValueError(f"{path}: missing {'/'.join(missing)} metadata")
        missing = [c for c in required_columns if c not in names]
        if missing:
            raise ValueError(f"{path}: missing column(s) {', '.join(missing)}")
        parts = [[] for _ in names]
        rows = (line.split(",") for line in fh if not line.startswith("#") and line.strip())
        try:
            while block := list(islice(rows, BLOCK_ROWS)):
                for part, cells in zip(parts, zip(*block, strict=True), strict=True):
                    part.append(np.fromiter(map(float, cells), float, len(cells)))
        except ValueError as exc:
            raise ValueError(f"{path}: malformed row ({exc})") from None
    return metadata, {name: np.concatenate(p) if p else np.empty(0)
                      for name, p in zip(names, parts)}
