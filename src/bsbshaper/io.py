"""The one table format of every CSV file the package writes or reads.

`#` comment lines (`# key=value` ones are metadata, the rest provenance text),
one line of comma-separated column names, then one row per sample.  Every cell is
made by one vectorised kernel, a block of rows at a time.  A float cell holds the
shortest decimal digits that read back as the float, the nearest such and ties to
even (Schubfach: Giulietti, "The Schubfach way to render doubles", 2020), laid out as
`repr(float)` lays them out, so its bytes are repr's and it reads back exactly.
Integer and boolean cells are the ints.  A grid passed in place of a column stands
for its frequency column, whose cells are made once per grid value and process.
`pulsefield.write_grid_table` and `read_grid_table` own the `# grid=` line and
that column.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import astuple
from functools import lru_cache
from itertools import islice
from typing import NamedTuple

import numpy as np

BLOCK_ROWS = 2048  # rows formatted at a time, which bounds the writer's working set
PARSE_ROWS = 1024  # rows parsed at a time, which bounds the reader's

_U = np.uint64
_M32, _32, _64 = _U(0xFFFFFFFF), _U(32), _U(64)
_WIDTH = 24  # bytes of the longest cell, as in -1.2345678901234567e-308
_CELL_WORD = np.dtype("<u8")  # a cell is 3 little-endian words: byte 0 is the lowest
_ASCII0 = _U(0x3030303030303030)  # "0" in each byte of a word
_SPECIAL = np.frombuffer(b"".join(s.ljust(_WIDTH, b"\0") for s in (b"nan", b"inf", b"-inf")),
                         np.uint8).reshape(3, _WIDTH)


def meta_line(key: str, *values) -> str:
    """`# key=v1 v2 ...`, each value formatted as a table cell is."""
    cells = (_cells(np.array([v])).tobytes().strip(b"\0").decode("ascii") for v in values)
    return f"# {key}={' '.join(cells)}\n"


class _Tables(NamedTuple):
    g_hi: np.ndarray  # g = g_hi 2^64 + g_lo = floor(10^-k 2^-r) + 1 in [2^127, 2^128),
    g_lo: np.ndarray  # for k = -324..292 (Schubfach's 10^-k)
    pow10: np.ndarray  # 10^0 .. 10^19
    quads: np.ndarray  # the 4 digits of 0..9999 as byte values, most significant first
    below: np.ndarray  # below[i, b]: the bytes below byte b of a cell's 3 words, in word i
    one: np.ndarray  # one[i, b]: 1 in byte b of a cell's 3 words, in word i
    text: np.ndarray  # text[i, 25 p + e]: "0" in the bytes below e but "." in byte p, in word i


@lru_cache(maxsize=None)
def _tables() -> _Tables:
    """The kernel's tables, built exactly from Python ints on the first write."""
    g = []
    for k in range(-324, 293):
        p = 10 ** abs(k)
        if k <= 0:  # 10^-k = p
            r = p.bit_length() - 128
            g.append((p >> r if r >= 0 else p << -r) + 1)
        else:  # 10^-k = 1 / p
            g.append((1 << (127 + p.bit_length())) // p + 1)
    v = np.arange(10000, dtype=np.uint32)
    quads = v // 1000 | v // 100 % 10 << 8 | v // 10 % 10 << 16 | v % 10 << 24  # little-endian
    b = np.clip(np.arange(_WIDTH + 2) - 8 * np.arange(3)[:, None], 0, 8).astype(_U)
    below = ~_U(0) >> (_64 - (b << _U(3)))
    one = (below[:, 1:] ^ below[:, :-1]) & _U(0x0101010101010101)
    text = (_ASCII0 - (one[:, :, None] << _U(1))) & below[:, None, :-1]  # "." is "0" less 2
    tables = _Tables(np.array([x >> 64 for x in g], _U), np.array([x % 2**64 for x in g], _U),
                     np.array([10**i for i in range(20)], _U), quads,
                     below, one, text.reshape(3, -1))
    for table in tables:
        table.setflags(write=False)
    return tables


def _decode(bits):
    """(c, closer, k, h) of each float64 c 2^q, given by its bits: closer when the gap below
    it is half the gap above, k = floor(log10(2^q)) (of 3/4 2^q when closer) and
    h = q + floor(log2(10^-k)) + 1, in 1..4."""
    e2 = bits >> _U(52) & _U(0x7FF)
    c = bits & _U(2**52 - 1)
    closer = (c == 0) & (e2 > 1)
    c |= (e2 != 0).astype(_U) << _U(52)
    q = np.maximum(e2, _U(1)).view(np.int64) - 1075
    k = (q * 1262611 - closer * 524031) >> 22
    return c, closer, k, (q + (-k * 1741647 >> 19) + 1).view(_U)


def _mul_hi(a, b0, b1):
    """The high words of the 128-bit products of a and b1 2^32 + b0, by 32-bit limbs."""
    a0, a1 = a & _M32, a >> _32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> _32) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> _32) + (p10 >> _32) + (mid >> _32)


def _times_g(gl, gh, cp):
    """g cp in three words, lowest first, for the 128-bit g = gh 2^64 + gl."""
    c0, c1 = cp & _M32, cp >> _32
    lo = gh * cp
    p1 = lo + _mul_hi(gl, c0, c1)
    return gl * cp, p1, _mul_hi(gh, c0, c1) + (p1 < lo)


def _shl(gl, gh, s):
    """g shifted left by s (1..5 bits), in three words, lowest first."""
    return gl << s, gh << s | gl >> (_64 - s), gh >> (_64 - s)


def _odd(p1, p2):
    """Schubfach's rounding to odd of the three-word p: its top word, the last bit set when the
    middle word holds more than 1."""
    return p2 | (p1 > _U(1))


def _odd_sum(p, a):
    """_odd(p + a), p and a in three words."""
    r1 = p[1] + a[1]
    r1c = r1 + (p[0] + a[0] < a[0])
    return _odd(r1c, p[2] + a[2] + (r1 < a[1]) + (r1c < r1))


def _odd_difference(p, a):
    """_odd(p - a), p and a in three words, p > a."""
    r1 = p[1] - a[1]
    r1c = r1 - (p[0] < a[0])
    return _odd(r1c, p[2] - a[2] - (p[1] < a[1]) - (r1 < r1c))


def _shortest(bits):
    """(digits, exp10) of each finite nonzero float64, given by its bits: the shortest digits
    whose value digits * 10**exp10 reads back as the float, the nearest such and ties to even,
    with no trailing zero.  This is Schubfach, its 64x128-bit products on 32-bit limbs; zeros
    and non-finite floats give values the caller discards.
    """
    t = _tables()
    c, closer, k, h = _decode(bits)
    gl, gh = t.g_lo[k + 324], t.g_hi[k + 324]
    # in quarter units of 10^k: the float is vb = g 4c 2^h / 2^128, rounded to odd, and its
    # rounding interval runs from lower (g (4c - 2) 2^h, or g (4c - 1) 2^h when closer) to
    # upper (g (4c + 2) 2^h); an odd c leaves both ends out
    p = _times_g(gl, gh, c << (h + _U(2)))
    vb = _odd(p[1], p[2])
    c &= _U(1)
    upper = _odd_sum(p, _shl(gl, gh, h + _U(1))) - c
    lower = _odd_difference(p, _shl(gl, gh, h + _U(1) - closer)) + c
    del p, gl, gh, c  # each array goes once used, which bounds a block's working set
    s4 = vb & ~_U(3)  # 4 s, s = vb // 4 the digits at this length
    sp = vb // _U(40)  # s // 10, the digits one shorter
    sp40 = sp * _U(40)
    # one digit fewer: the interval holds at most one multiple of 10^(k+1)
    wp_in = sp40 + _U(40) <= upper
    short = (s4 >= _U(40)) & ((lower <= sp40) != wp_in)
    # else s or s + 1, whichever alone is inside, or else the nearer, ties to even: the
    # majority of (s + 1 inside, s outside, the nearer is s + 1)
    u_out = lower > s4
    w_in = s4 + _U(4) <= upper
    half_up = (vb > s4 + _U(2)) | (vb == s4 + _U(2)) & (vb & _U(4) != 0)
    d = np.where(short, sp + wp_in,
                 (s4 >> _U(2)) + (w_in & half_up | u_out & (w_in | half_up)))
    k += short
    for n in (16, 8, 4, 2, 1):  # strip the trailing zeros
        q = d // t.pow10[n]
        zeros = q * t.pow10[n] == d
        d = np.where(zeros, q, d)
        k += zeros * n
    return d, k


def _digit_count(d):
    """The number of decimal digits of each uint64, 1 for 0."""
    d = d | _U(1)  # the same count, and 1 for 0
    bit_length = (d.astype(np.float64).view(_U) >> _U(52)).view(np.int64) - 1022  # or one more
    t = bit_length * 1233 >> 12  # floor(bit_length log10(2)); the count is t + 1, or t
    return t + 1 - (d < _tables().pow10[t])


def _digit_words(d):
    """Each d < 10^20's 20 decimal digits as byte values, most significant first, in bytes
    4..23 of its cell's 3 words, each word an array."""
    quads = _tables().quads
    top = d // _U(10**16)
    d = d - top * _U(10**16)
    hi = d // _U(10**8)
    lo = d - hi * _U(10**8)
    a, b = hi // _U(10**4), lo // _U(10**4)
    return (quads[top].astype(_U) << _32, quads[a] | quads[hi - a * _U(10**4)].astype(_U) << _32,
            quads[b] | quads[lo - b * _U(10**4)].astype(_U) << _32)


def _float_cells(x) -> np.ndarray:
    """The cells of float64 values, one row of _WIDTH NUL-padded bytes each, as repr writes:
    positional up to 16 digits before the point and down to 0.0001, with ".0" after an
    integral value, else d.ddde+XX."""
    t = _tables()
    bits = x.view(_U)
    ok = np.isfinite(x) & (bits << _U(1) != 0)  # zeros and non-finite floats lay out as 0.0
    d, k = _shortest(bits)
    n = np.where(ok, _digit_count(d), 1)  # significant digits
    dp = np.where(ok, n + k, 1)  # where the point goes: after dp digits
    del k
    words = _digit_words(d * t.pow10[17 - n] * ok)  # 17 digits, the first in byte 7
    del d
    expo = (dp < -3) | (dp > 16)
    at = np.where(expo, 1, dp)  # digits before the point
    neg = (bits >> _U(63)).view(np.int64)
    point = neg + np.maximum(at, 1)
    end = point + 1 + np.maximum(n - at, 1) - 2 * (expo & (n == 1))  # 1e+16 has no point
    # the first digit goes to byte neg, or after "0." and zeros when at <= 0, and the digits
    # from the point on one byte further
    sb = (7 - neg - np.maximum(1 - at, 0)).view(_U) << _U(3)
    del n, at
    cells = np.empty((len(bits), 3), _CELL_WORD)
    sb_up, text_at = _64 - sb, point * (_WIDTH + 1) + end
    carry = _U(0)
    for i in range(3):  # bytes 0..23 in 3 words; the digits hold values 0..9, "0" added last
        v = words[i] >> sb | (words[i + 1] << sb_up if i < 2 else _U(0))
        low = v & t.below[i][point]
        high = v ^ low
        cells[:, i] = (low | high << _U(8) | carry) + t.text[i][text_at]
        carry = high >> _U(56)
    cells[:, 0] -= (3 * neg).view(_U)  # the sign, in place of a leading "0"
    chars = cells.view(np.uint8)
    ex = np.flatnonzero(expo & ok)
    if ex.size:  # after the digits: "e", the sign and two or three digits of the exponent
        e = dp[ex] - 1
        width = 2 + (np.abs(e) >= 100)
        digits = t.quads[np.abs(e)].astype(_U) >> (_U(8) * (4 - width).astype(_U))
        sign = np.where(e < 0, ord("-"), ord("+")).astype(_U)
        suffix = (digits + (_ASCII0 & t.below[0][width])) << _U(16) | sign << _U(8) | _U(ord("e"))
        at_end = (ex * _WIDTH + end[ex])[:, None] + np.arange(5)
        chars.reshape(-1)[at_end] = suffix.astype(_CELL_WORD)[:, None].view(np.uint8)[:, :5]
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        chars[bad] = _SPECIAL[np.where(np.isnan(x[bad]), 0, 1 + (x[bad] < 0))]
    return chars


def _int_cells(values) -> np.ndarray:
    """The cells of int64 or uint64 values, right-aligned in rows like _float_cells'."""
    t = _tables()
    negative = values < 0
    magnitude = values.astype(_U)  # two's complement for a negative value
    magnitude = np.where(negative, -magnitude, magnitude)
    start = _WIDTH - _digit_count(magnitude) - negative  # the cell's first byte
    minus = (3 * negative).astype(_U)  # "-" is "0" less 3
    cells = np.empty((len(values), 3), _CELL_WORD)
    for i, w in enumerate(_digit_words(magnitude)):
        cells[:, i] = (w + _ASCII0 - t.one[i][start] * minus) & ~t.below[i][start]
    return cells.view(np.uint8)


def _cells(values) -> np.ndarray:
    """The cells of a float, integer or boolean array, one row of _WIDTH bytes each."""
    if values.dtype.kind == "f":
        return _float_cells(np.ascontiguousarray(values, np.float64))
    return _int_cells(values.astype(np.int64 if values.dtype.kind == "i" else _U, copy=False))


@lru_cache(maxsize=8)  # grids whose cells are kept, least recently used dropped
def _frequency_cells(grid_type, *fields) -> tuple[np.ndarray, ...]:
    """The cells of a grid's `omegas`, one read-only byte array per block of BLOCK_ROWS rows,
    as wide as its longest cell.

    Keyed by the grid's type and fields, so that no grid, nor its `omegas` array, is kept.
    """
    w = grid_type(*fields).omegas
    blocks = []
    for i in range(0, len(w), BLOCK_ROWS):
        cells = _cells(w[i:i + BLOCK_ROWS])
        cells = cells[:, :np.flatnonzero(cells.any(axis=0))[-1] + 1].copy()
        cells.setflags(write=False)
        blocks.append(cells)
    return tuple(blocks)


def _checked_columns(names, columns) -> tuple[list, int]:
    """(columns, rows): each array column as an array, each grid as its frequency cells.

    A name too many or too few, a column of other than float, integer or boolean values, or
    columns of different lengths raise, so that no row is dropped nor a cell written that
    reads back as something else.
    """
    if len(names) != len(columns):
        raise ValueError(f"{len(names)} column names for {len(columns)} columns")
    checked, lengths = [], []
    for name, column in zip(names, columns):
        if hasattr(column, "omegas"):  # a grid stands for its frequency column
            checked.append(_frequency_cells(type(column), *astuple(column)))
            lengths.append(column.n_samples)
            continue
        column = np.asarray(column)
        if column.dtype.kind not in "fiub":
            raise TypeError(f"column {name}: {column.dtype} values cannot be written, "
                            "only float, integer or boolean ones")
        if column.ndim != 1:
            raise ValueError(f"column {name}: shape {column.shape} is not one column")
        checked.append(column)
        lengths.append(len(column))
    rows = max(lengths, default=0)
    for name, length in zip(names, lengths):
        if length != rows:
            raise ValueError(f"column {name} has {length} rows, where column "
                             f"{names[lengths.index(rows)]} has {rows}")
    return checked, rows


def _rows(columns, start, stop) -> str:
    """Rows start..stop of the table: each cell, then "," or, after the last, a newline."""
    rows = stop - start
    slab = np.zeros((rows, len(columns), _WIDTH + 1), np.uint8)  # NULs are dropped at the end
    slab[:, :, _WIDTH] = ord(",")
    slab[:, -1, _WIDTH] = ord("\n")
    groups = {}  # array columns by a kind that concatenates exactly: float, signed, unsigned
    for j, column in enumerate(columns):
        if isinstance(column, tuple):  # a grid's frequency cells
            cells = column[start // BLOCK_ROWS]
            slab[:, j, :cells.shape[1]] = cells
        else:
            groups.setdefault(column.dtype.kind.replace("b", "u"), []).append(j)  # bool is 0/1
    for group in groups.values():  # one kernel call per kind formats the block's columns
        cells = _cells(np.concatenate([columns[j][start:stop] for j in group]))
        slab[:, group, :_WIDTH] = cells.reshape(len(group), rows, _WIDTH).swapaxes(0, 1)
    return slab[slab != 0].tobytes().decode("ascii")


def write_table(path, header_lines, names, columns):
    """Write `header_lines`, the column `names`, then one row per sample; a stream stays open.

    Raises ValueError when the columns differ in length, or a name is missing or extra, and
    TypeError for a column of other than float, integer or boolean values, before writing.
    """
    columns, rows = _checked_columns(names, columns)
    opened = open(path, "w") if isinstance(path, (str, os.PathLike)) \
        else contextlib.nullcontext(path)
    with opened as fh:
        fh.writelines(header_lines)
        fh.write(",".join(names) + "\n")
        for start in range(0, rows, BLOCK_ROWS):
            fh.write(_rows(columns, start, min(start + BLOCK_ROWS, rows)))


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
            while block := list(islice(rows, PARSE_ROWS)):
                for part, cells in zip(parts, zip(*block, strict=True), strict=True):
                    part.append(np.fromiter(map(float, cells), float, len(cells)))
        except ValueError as exc:
            where = _first_bad_row(path, len(names)) or exc
            raise ValueError(f"{path}: malformed row ({where})") from None
    return metadata, {name: np.concatenate(p) if p else np.empty(0)
                      for name, p in zip(names, parts)}
