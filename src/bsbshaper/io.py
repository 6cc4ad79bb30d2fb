"""The one table format of every CSV file the package writes or reads.

`#` comment lines (`# key=value` ones are metadata, the rest provenance text),
one line of comma-separated column names, then one row per sample.  Floats are
written as repr(float), so they read back exactly; integer and boolean columns as ints.
A grid passed in place of a column stands for its frequency column, whose cells are
formatted once per grid value and process.  `pulsefield.write_grid_table` and
`read_grid_table` own the `# grid=` line and that column.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import astuple
from functools import lru_cache
from itertools import islice

import numpy as np

BLOCK_ROWS = 1024  # rows turned into Python objects at a time, which bounds peak memory


def meta_line(key: str, *values) -> str:
    """`# key=v1 v2 ...`, each value formatted like a table cell."""
    cells = (str(int(v)) if isinstance(v, (int, np.integer)) else repr(float(v)) for v in values)
    return f"# {key}={' '.join(cells)}\n"


@lru_cache(maxsize=8)  # grids whose cells are kept, least recently used dropped
def _frequency_cells(grid_type, *fields) -> tuple[str, ...]:
    """The cells of a grid's `omegas`, one "\\n"-joined string per block of BLOCK_ROWS rows.

    Keyed by the grid's type and fields, so that no grid, nor its `omegas` array, is kept.
    """
    w = grid_type(*fields).omegas.tolist()
    return tuple("\n".join(map(repr, w[i:i + BLOCK_ROWS])) for i in range(0, len(w), BLOCK_ROWS))


def _column_blocks(column):
    """The cells of one column, as one iterable of strings per block of BLOCK_ROWS rows."""
    if hasattr(column, "omegas"):  # a grid stands for its frequency column
        cells = _frequency_cells(type(column), *astuple(column))
        return (block.split("\n") for block in cells)
    column = np.asarray(column)
    fmt = int.__repr__ if column.dtype.kind in "biu" else repr  # booleans as 0/1
    return (map(fmt, column[i:i + BLOCK_ROWS].tolist()) for i in range(0, len(column), BLOCK_ROWS))


def write_table(path, header_lines, names, columns):
    """Write `header_lines`, the column `names`, then one row per sample; a stream stays open."""
    blocks = [_column_blocks(c) for c in columns]
    opened = open(path, "w") if isinstance(path, (str, os.PathLike)) \
        else contextlib.nullcontext(path)
    with opened as fh:
        fh.writelines(header_lines)
        fh.write(",".join(names) + "\n")
        for cells in zip(*blocks):
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _first_bad_row(path, width: int) -> str | None:
    """Where and why the first data row of a table `width` columns wide is malformed.

    Reads the file again, so the fast path of read_table counts no lines.
    """
    with open(path) as fh:
        lines = ((n, line) for n, line in enumerate(fh, 1)
                 if not line.startswith("#") and line.strip())
        next(lines)  # the column-name line
        for n, line in lines:
            cells = line.split(",")
            if len(cells) != width:
                return f"line {n}: {len(cells)} cells, where the column-name line names {width}"
            if not all(map(_is_number, cells)):
                return f"line {n}: {line.strip()!r} holds a cell that is not a number"
    return None


def read_table(path, required_keys=(),
               required_columns=()) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """(metadata, data): the `# key=value` strings and the float columns by name.

    Raises ValueError when the column-name line is missing (no line, or a first
    non-comment line of numbers) or names a column twice, a required metadata key
    or column is missing or a row is malformed.
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
        if twice := [name for i, name in enumerate(names) if name in names[:i]]:
            raise ValueError(f"{path}: column {twice[0]} appears twice in the column-name line")
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
            where = _first_bad_row(path, len(names)) or exc
            raise ValueError(f"{path}: malformed row ({where})") from None
    return metadata, {name: np.concatenate(p) if p else np.empty(0)
                      for name, p in zip(names, parts)}
