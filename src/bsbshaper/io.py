"""The one table format of every CSV file the package writes or reads.

`#` comment lines (`# key=value` ones are metadata, the rest provenance text),
one line of comma-separated column names, then one row per sample.  Every float cell is
made by one vectorised kernel, about BLOCK_CELLS cells at a time whatever the table's
width.  A float cell holds the shortest decimal digits that read back as the float, the
nearest such and ties to even (Schubfach: Giulietti, "The Schubfach way to render
doubles", 2020), laid out as `repr(float)` lays them out, so its bytes are repr's and it
reads back exactly.  Only float and boolean columns are written, a boolean cell as 0 or 1.
Each row is laid into a slab where each column takes its own width and separator, and one
pass drops the NULs that pad the shorter cells.  A metadata value is written as `repr`
writes its Python value, and a key may appear only once.  A column's `Cells`
(`format_cells`), passed in place of it, are written as they were formatted, so a column that
many tables share is formatted once.

Every cell is read by another kernel, a chunk of whole lines at a time.  A cell is a
decimal, [+-](d+[.d*]|.d+)[(e|E)[+-]d+] in ASCII digits, or nan, inf or infinity in any
case and with an optional sign, with nothing but ASCII whitespace around it, and its
value is float()'s.  The kernel rounds a decimal of up to 19 significant digits to the
nearest float64 by Eisel-Lemire; the cells it cannot prove go to float() one at a time.
A chunk whose rows are not whole, or with a cell that is not a number, takes the one slow
path: it is read again one line at a time, `#` lines and blank lines are skipped, and the
first bad line is named by its number in the file, which is opened once.  The two kernels
share one set of exact power-of-five and byte-mask tables, built on the first write or read.
"""

from __future__ import annotations

import contextlib
import locale
import os
import re
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

import numpy as np

BLOCK_CELLS = 6144  # float cells formatted at a time, which bounds the writer's working set
CHUNK_BYTES = 1 << 16  # bytes of rows parsed at a time, which bounds the reader's working set

_U = np.uint64
_M32, _32, _64 = _U(0xFFFFFFFF), _U(32), _U(64)
_WIDTH = 24  # bytes of the longest cell, as in -1.2345678901234567e-308
_CELL_WORD = np.dtype("<u8")  # a cell is 3 little-endian words: byte 0 is the lowest
_ASCII0 = _U(0x3030303030303030)  # "0" in each byte of a word
_SPECIAL = np.frombuffer(b"".join(s.ljust(_WIDTH, b"\0") for s in (b"nan", b"inf", b"-inf")),
                         np.uint8).reshape(3, _WIDTH)


def meta_line(key: str, *values) -> str:
    """`# key=v1 v2 ...`, each value as `repr` writes its Python value: a float as a float
    cell is written, an int in its digits."""
    return f"# {key}={' '.join(repr(np.asarray(v).item()) for v in values)}\n"


class _Tables(NamedTuple):
    p5: np.ndarray  # p5[:, q + 342]: 5^q = p5[0] 2^64 + p5[1] in [2^127, 2^128), truncated to
    #                 128 bits as Eisel-Lemire's table holds it, for q = -342..324
    g_hi: np.ndarray  # g = g_hi 2^64 + g_lo = floor(10^-k 2^-r) + 1 in [2^127, 2^128),
    g_lo: np.ndarray  # for k = -324..292 (Schubfach's 10^-k)
    pow10: np.ndarray  # 10^0 .. 10^19
    quads: np.ndarray  # the 4 digits of 0..9999 as byte values, most significant first
    below: np.ndarray  # below[i, b]: the bytes below byte b of a cell's 3 words, in word i
    text: np.ndarray  # text[i, 25 p + e]: "0" in the bytes below e but "." in byte p, in word i
    suffix: np.ndarray  # suffix[dp + 323]: "e", the sign and the exponent's digits of a cell whose
    #                     point goes after dp digits, for dp = -323..309; 0 where it is positional
    digits: np.ndarray  # digits[j, 5 (24 - m) + e]: the low nibbles of the top m window bytes in
    #                     words 0..2, and of the top e bytes of the cell's last word in row 3


@lru_cache(maxsize=None)
def _tables() -> _Tables:
    """The tables of both kernels, built exactly from Python ints on the first write or read."""
    p5 = []
    for q in range(-342, 325):
        if q >= 0:  # 5^q with its top bit moved to bit 127, truncated
            r = (5 ** q).bit_length() - 128
            p5.append(5 ** q >> r if r >= 0 else 5 ** q << -r)
        else:  # 1 / 5^-q, one above its floor, then truncated
            z = (5 ** -q).bit_length()
            c = (1 << (z + 127 if q >= -27 else 2 * z + 128)) // 5 ** -q + 1
            p5.append(c >> max(c.bit_length() - 128, 0))
    # 10^-k has 5^-k's top 128 bits, so g is p5 + 1, but for k = 1..27, whose p5 is already g
    g = [p5[342 - k] + (not 1 <= k <= 27) for k in range(-324, 293)]
    v = np.arange(10000, dtype=np.uint32)
    quads = v // 1000 | v // 100 % 10 << 8 | v // 10 % 10 << 16 | v % 10 << 24  # little-endian
    b = np.clip(np.arange(_WIDTH + 2) - 8 * np.arange(3)[:, None], 0, 8).astype(_U)
    below = ~_U(0) >> (_64 - (b << _U(3)))
    one = (below[:, 1:] ^ below[:, :-1]) & _U(0x0101010101010101)
    text = (_ASCII0 - (one[:, :, None] << _U(1))) & below[:, None, :-1]  # "." is "0" less 2
    suffix = [0 if -3 <= dp <= 16 else int.from_bytes(f"e{dp - 1:+03d}".encode(), "little")
              for dp in range(-323, 310)]
    digits = np.zeros((4, 125), _U)
    digits[:3] = np.repeat(~below[:, :25], 5, axis=1)  # bytes from offset 24 - m on
    digits[3] = np.tile(~below[2, 24:19:-1], 25)  # the top e bytes of a word
    digits &= _U(0x0F0F0F0F0F0F0F0F)
    tables = _Tables(np.array([[x >> 64 for x in p5], [x % 2**64 for x in p5]], _U),
                     np.array([x >> 64 for x in g], _U), np.array([x % 2**64 for x in g], _U),
                     np.array([10**i for i in range(20)], _U), quads,
                     below, text.reshape(3, -1), np.array(suffix, _U), digits)
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
    mid = (a0 * b0 >> _32) + a1 * b0  # no sum here or below passes 2^64
    return a1 * b1 + (mid >> _32) + ((mid & _M32) + a0 * b1 >> _32)


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
    # the few cells with a trailing zero (a uint64 remainder costs twice this test)
    at = np.flatnonzero(d // _U(10) * _U(10) == d)
    z, kz = d[at], k[at]
    for n in (16, 8, 4, 2, 1):  # strip them
        q = z // t.pow10[n]
        zeros = q * t.pow10[n] == z
        z = np.where(zeros, q, z)
        kz += zeros * n
    d[at], k[at] = z, kz
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

    def quad(v):  # `take` by int64 indices, about three times as fast as indexing by uint64
        return quads.take(v.view(np.int64)).astype(_U)

    top = d // _U(10**16)
    d = d - top * _U(10**16)
    hi = d // _U(10**8)
    lo = d - hi * _U(10**8)
    a, b = hi // _U(10**4), lo // _U(10**4)
    return (quad(top) << _32, quad(a) | quad(hi - a * _U(10**4)) << _32,
            quad(b) | quad(lo - b * _U(10**4)) << _32)


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
    if expo.any():  # after the digits, from byte end: "e", the sign and the exponent's digits
        suffix = t.suffix[dp + 323]  # 0 for a positional cell
        bit = (end << 3).view(_U)  # a shift by 64 bits or more gives 0 in numpy
        cells[:, 0] |= suffix << bit
        for i in (1, 2):
            cells[:, i] |= suffix << (bit - _U(64 * i)) | suffix >> (_U(64 * i) - bit)
    chars = cells.view(np.uint8)
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        chars[bad] = _SPECIAL[np.where(np.isnan(x[bad]), 0, 1 + (x[bad] < 0))]
    return chars


class Cells(NamedTuple):
    """A float column formatted ahead of the tables that write it (`format_cells`)."""

    cells: np.ndarray  # one byte row per value, NUL-padded to the longest cell


def format_cells(column) -> Cells:
    """The Cells of a float column, formatted BLOCK_CELLS values at a time."""
    x = np.asarray(column, np.float64)
    cells = np.empty((len(x), _WIDTH), np.uint8)
    for i in range(0, len(x), BLOCK_CELLS):
        cells[i:i + BLOCK_CELLS] = _float_cells(x[i:i + BLOCK_CELLS])
    return Cells(cells[:, :np.count_nonzero(cells.any(axis=0))].copy())  # a cell's NULs trail it


def _checked_columns(names, columns) -> tuple[list, int]:
    """(columns, rows): each array column as an array, and each Cells.

    A name too many or too few, a column of other than float or boolean values, or columns
    of different lengths raise, so that no row is dropped nor a cell written that
    reads back as something else.
    """
    if len(names) != len(columns):
        raise ValueError(f"{len(names)} column names for {len(columns)} columns")
    checked, lengths = [], []
    for name, column in zip(names, columns):
        if isinstance(column, Cells):  # formatted already
            checked.append(column)
            lengths.append(len(column.cells))
            continue
        column = np.asarray(column)
        if column.dtype.kind not in "fb":
            raise TypeError(f"column {name}: {column.dtype} values cannot be written, "
                            "only float or boolean ones")
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


_BOOL_CELLS = np.frombuffer(b"01", np.uint8)  # the cell of False and of True, one byte each


def _rows(columns, start, stop) -> str:
    """Rows start..stop of the table: each cell, then "," or, after the last, a newline."""
    widths = [c.cells.shape[1] if isinstance(c, Cells) else 1 if c.dtype.kind == "b"
              else _WIDTH for c in columns]
    at = np.cumsum([0] + [w + 1 for w in widths])  # where each column's slot starts in a row
    slab = np.empty((stop - start, at[-1]), np.uint8)  # every byte written, NULs dropped at the end
    slab[:, at[1:-1] - 1] = ord(",")
    slab[:, -1] = ord("\n")
    floats = []
    for j, column in enumerate(columns):
        if isinstance(column, Cells):
            slab[:, at[j]:at[j + 1] - 1] = column.cells[start:stop]
        elif column.dtype.kind == "b":  # a byte lookup, not the kernel
            slab[:, at[j]] = _BOOL_CELLS[column[start:stop].astype(np.uint8)]
        else:
            floats.append(j)
    if floats:  # one kernel call formats the block's float columns
        cells = _float_cells(np.ascontiguousarray(
            np.concatenate([columns[j][start:stop] for j in floats]), np.float64))
        for j, c in zip(floats, cells.reshape(len(floats), stop - start, _WIDTH)):
            slab[:, at[j]:at[j + 1] - 1] = c
    return slab[slab != 0].tobytes().decode("ascii")


def write_table(path, header_lines, names, columns):
    """Write `header_lines`, the column `names`, then one row per sample; a stream stays open.

    Rows go out in blocks of about BLOCK_CELLS float cells, whatever the table's width.
    Raises ValueError when the columns differ in length, or a name is missing or extra, and
    TypeError for a column of other than float or boolean values, before writing.
    """
    columns, rows = _checked_columns(names, columns)
    floats = sum(not isinstance(c, Cells) and c.dtype.kind == "f" for c in columns)
    block = max(1, BLOCK_CELLS // max(floats, 1))
    opened = open(path, "w") if isinstance(path, (str, os.PathLike)) \
        else contextlib.nullcontext(path)
    with opened as fh:
        fh.writelines(header_lines)
        fh.write(",".join(names) + "\n")
        for start in range(0, rows, block):
            fh.write(_rows(columns, start, min(start + block, rows)))


_NUMBER = re.compile(rb"[+-]?(?:(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
                     rb"|(?i:nan|inf|infinity))")


def _number(cell: bytes) -> float:
    """The value of one cell, float()'s: ValueError unless, once its ASCII whitespace is
    stripped, it is a decimal [+-](d+[.d*]|.d+)[(e|E)[+-]d+] or a nan, inf or infinity in any case
    and with an optional sign (so no "_" and no non-ASCII digit or space, which float() takes)."""
    if not _NUMBER.fullmatch(cell.strip()):  # bytes.strip() strips ASCII whitespace only
        raise ValueError(f"{cell!r} is not a number")
    return float(cell)


def meta_values(text: str, types) -> list:
    """One value of each type in `types` (int or float) from the text after `# key=`, split at
    ASCII whitespace: a float by the cell rule of `_number`, an int in ASCII digits only.

    Raises ValueError for a value too many or too few, or one that does not parse.
    """
    cells = text.encode().split()
    if len(cells) != len(types):
        raise ValueError(f"{len(cells)} values for {len(types)}")
    values = []
    for kind, cell in zip(types, cells):
        if kind is int and not cell.isdigit():
            raise ValueError(f"{cell!r} is not an integer")
        values.append(int(cell) if kind is int else _number(cell))
    return values


_ZERO, _COMMA, _NEWLINE, _POINT, _PLUS, _MINUS, _LOWER_E = (np.uint8(ord(c)) for c in "0,\n.+-e")
_NINE, _NOT_2, _CASE = np.uint8(9), np.uint8(0xFD), np.uint8(0x20)
_8, _56, _63 = _U(8), _U(56), _U(63)
_LOW9 = _U(0x1FF)
_WORDS = np.arange(5)[:, None]  # the aligned words that hold a 32-byte window
_HEAD = b"0" * 24  # digits before a chunk's rows, so that no cell's window starts before them
_END = bytes(16)  # after them, for the aligned words of the last cell


def _sign(c):
    """1 where a byte is "+" or "-", else 0."""
    return (((c - _PLUS) & _NOT_2) == 0).astype(np.int64)


def _parse_cells(buf: bytes, n: int):
    """(values, redo, starts, ends, newline) of the cells in buf[len(_HEAD):n], whole lines of
    cells that "," or a newline ends: the float64 of each cell, the indices of the cells the
    kernel cannot prove (their values are garbage), where each cell starts and ends, and
    whether a newline ends it.

    A proved cell is [+-]digits with at most one point, then maybe e or E, [+-] and 1 to 4
    digits, with 1 to 23 mantissa digits of which at most 19 after its leading zeros, and a
    normal float64 for its value.  Its value is the mantissa w times 10^q, rounded by
    Eisel-Lemire (D. Lemire, "Number parsing at a gigabyte per second", 2021), which needs no
    fallback for such w (N. Mushtak and D. Lemire, "Fast number parsing without fallback",
    2023): the 64x64-bit product of w and 5^q's top word, the product with its low word only
    where the first leaves the result in doubt, and the round-to-even tie check.
    """
    t = _tables()
    b = np.frombuffer(buf, np.uint8)
    ev = np.flatnonzero((b[:n] - _ZERO) > _NINE)  # the events: every byte that is no digit
    kind = b.take(ev)
    seps = np.flatnonzero((kind == _COMMA) | (kind == _NEWLINE))  # the event that ends each cell
    if not seps.size:
        empty = np.empty(0, np.int64)
        return np.empty(0), empty, empty, empty, np.empty(0, bool)
    newline = kind.take(seps) == _NEWLINE
    ends = ev.take(seps)
    starts = np.concatenate(([len(_HEAD)], ends[:-1] + 1))
    # a cell's non-digits, in order: a sign at its first byte, a point, a marker, a sign after
    # it; it is well formed when these account for every one
    c = b.take(starts)
    negative = c == _MINUS
    sign = _sign(c)
    i = np.concatenate(([0], seps[:-1] + 1))
    i += sign  # its first non-digit after the sign
    at_point = ev.take(i)
    point = (kind.take(i) == _POINT).astype(np.int64)
    i += point
    marker = ((kind.take(i) | _CASE) == _LOWER_E).astype(np.int64)
    mend = ev.take(i)  # where the mantissa ends: the marker, or the cell's end
    del ev, kind  # each array goes once used, which bounds a chunk's working set
    c = b.take(mend + 1)
    exp_sign = _sign(c) & marker
    minus = (c == _MINUS).astype(np.int64) & marker
    i += marker
    i += exp_sign
    ok = i == seps
    del i, seps, c
    m = mend - starts - sign - point  # mantissa digits
    ok &= (m - 1).view(_U) <= _U(22)
    e = ends - mend - marker - exp_sign  # exponent digits
    ok &= (e <= 4) & (e >= marker)
    digits = t.digits.take((24 - m) * 5 + e, axis=1, mode="clip")
    del m, e, sign, marker, exp_sign
    # the mantissa right-aligned in a 24-byte window ending at mend, where the bytes below the
    # point move up one byte over it, and the cell's last 8 bytes, which end with the exponent
    at = mend - 24
    r = ((at & 7) << 3).astype(_U)
    words = np.frombuffer(buf, _CELL_WORD, len(buf) // 8).take((at >> 3) + _WORDS)
    x = words[:4] >> r
    words[1:] <<= _64 - r
    x |= words[1:]
    del words
    r = ((ends - mend) << 3).astype(_U)
    np.bitwise_or(x[2] >> r, x[3] << (_64 - r), out=x[3])
    up = (at_point - at + 1) * point  # one past the point's offset in the window; 0 for none
    del at, at_point, mend, r
    moved = x[:3] << _8
    moved[1:] |= x[:2] >> _56
    moved ^= x[:3]
    moved &= t.below.take(up, axis=1, mode="clip")
    x[:3] ^= moved
    del moved
    x &= digits
    del digits
    # each word's 8 digits, the first in its lowest byte, as an integer (SWAR)
    x *= _U(2561)
    x >>= _8
    x &= _U(0x00FF00FF00FF00FF)
    x *= _U(6553601)
    x >>= _U(16)
    x &= _U(0x0000FFFF0000FFFF)
    x *= _U(42949672960001)
    x >>= _32
    ok &= x[0] < _U(1000)  # at most 19 digits
    w = x[0] * _U(10**16)
    w += x[1] * _U(10**8)
    w += x[2]
    q = x[3].view(np.int64) ^ -minus
    q += minus
    q += up
    q -= 24 * point
    del x, up, point, minus
    # Eisel-Lemire: w, normalised to 64 bits, times 5^q's top word, and times its low word too
    # where the 9 bits below the 55 the result keeps are all set, so that a carry could reach them
    top = (w & ~(w >> _U(1))).astype(np.float64).view(_U) >> _U(52)  # w's biased exponent
    nonzero = w != 0
    w <<= _U(1086) - top
    q += 342
    ok &= (q.view(_U) <= _U(650)) | ~nonzero
    p5 = t.p5[0].take(q, mode="clip")
    w0, w1 = w & _M32, w >> _32
    hi = _mul_hi(p5, w0, w1)
    lo = p5 * w
    doubt = np.flatnonzero((hi & _LOW9) == _LOW9)
    if doubt.size:
        more = _mul_hi(t.p5[1].take(q.take(doubt), mode="clip"), w0.take(doubt), w1.take(doubt))
        low = lo.take(doubt) + more
        lo[doubt] = low
        hi[doubt] += low < more
    q -= 342
    del p5, w, w0, w1
    upper = hi >> _63
    drop = upper + _U(9)
    mantissa = hi >> drop
    # a tie, which only 5^q for q in -4..23 can make, rounds to even: the bits dropped are 0
    # and the two lowest kept are 01
    tie = hi << (_U(62) - drop) == _U(1 << 62)
    tie &= lo <= _U(1)
    tie &= (q + 4).view(_U) <= _U(27)
    mantissa -= tie
    del hi, lo, drop, tie
    mantissa += mantissa & _U(1)
    mantissa >>= _U(1)
    p2 = q  # from here on the biased binary exponent, in place
    p2 *= 217706
    p2 >>= 16  # floor(q log2(10))
    p2 += (upper + top).view(np.int64)
    ok &= (p2 >= 1) | ~nonzero  # else subnormal
    p2 -= 1
    p2 <<= 52
    bits = p2.view(_U)
    bits += mantissa  # a carry out of the mantissa raises the exponent
    ok &= (bits < _U(0x7FF0000000000000)) | ~nonzero
    bits *= nonzero
    bits |= negative.astype(_U) << _63
    return bits.view(np.float64), np.flatnonzero(~ok), starts, ends, newline


def _parse_lines(rows: bytes, width: int, line: int, encoding: str) -> np.ndarray:
    """The cells of a chunk of rows whose first line is line `line`, one line at a time:
    `#` lines and blank lines are skipped, and ValueError names the first line of other
    than `width` cells or with a cell that is not a number."""
    values = []
    for n, text in enumerate(rows[len(_HEAD):-len(_END)].split(b"\n"), line):
        if text.startswith(b"#") or not text.strip():
            continue
        cells = text.split(b",")
        if len(cells) != width:
            raise ValueError(f"line {n}: {len(cells)} cells, "
                             f"where the column-name line names {width}")
        try:
            values += map(_number, cells)
        except ValueError:
            text = text.strip().decode(encoding, "replace")
            raise ValueError(f"line {n}: {text!r} holds a cell that is not a number") from None
    return np.array(values, np.float64)


def _parse_rows(rows: bytes, width: int, line: int, encoding: str) -> np.ndarray:
    """The cells of a chunk of rows whose first line is line `line`, row by row: by the kernel,
    with float() for each cell it cannot prove, and by _parse_lines where its rows are not whole
    or a cell is not a number."""
    values, redo, starts, ends, newline = _parse_cells(rows, len(rows) - len(_END))
    if not newline.size % width and newline[width - 1::width].all() \
            and np.count_nonzero(newline) == newline.size // width:
        with contextlib.suppress(ValueError):
            values[redo] = [_number(rows[s:e]) for s, e in zip(starts[redo], ends[redo])]
            return values
    return _parse_lines(rows, width, line, encoding)


def _blocks(fh):
    """The rest of `fh`, about CHUNK_BYTES at a time, with universal newlines: a block that
    ends in \\r takes the \\n after it."""
    while block := fh.read(CHUNK_BYTES):
        if block.endswith(b"\r") and fh.peek(1)[:1] == b"\n":
            block += fh.read(1)
        yield block.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in block else block


def _head(path, blocks, encoding: str):
    """(metadata, names, n, rest): the `# key=value` strings and the column names of a table's
    first lines, the number n of its first row line, and the blocks after the column-name line.
    A key that appears twice raises ValueError, which names the file, the line and the key."""
    metadata, text, start, n = {}, b"", 0, 1
    for block in chain(blocks, [b"\n"]):  # the newline ends a last line that has none
        text, start = text[start:] + block, 0
        while (end := text.find(b"\n", start)) >= 0:
            line, start, n = text[start:end].decode(encoding), end + 1, n + 1
            if line.startswith("#"):
                key, sep, value = line[1:].strip().partition("=")
                if sep:
                    if key in metadata:
                        raise ValueError(f"{path}: line {n - 1}: metadata key {key} appears twice")
                    metadata[key] = value
            elif line.strip():
                return metadata, line.strip().split(","), n, chain([text[start:]], blocks)
    return metadata, [], n, iter(())


def _row_chunks(blocks, line: int):
    """(buffer, line): the blocks in buffers of whole lines between _HEAD and _END, and the
    number of each buffer's first line, the first being line `line`."""
    rest = b""
    for block in blocks:
        cut = block.rfind(b"\n") + 1
        if cut:
            yield b"".join((_HEAD, rest, memoryview(block)[:cut], _END)), line
            line += block.count(b"\n", 0, cut)
            rest = block[cut:]
        else:
            rest += block
    if rest:
        yield b"".join((_HEAD, rest, b"\n", _END)), line


def read_table(path, required_keys=(),
               required_columns=()) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """(metadata, data): the `# key=value` strings and the float columns by name.

    Raises ValueError when the column-name line is missing (no line, or a first non-comment
    line of numbers), a column or metadata key appears twice, a required metadata key or
    column is missing or a row is malformed: it has other than one cell per name, or a cell
    that is not a number by the rule of `_number`; the message names its line.
    """
    with open(path, "rb") as fh:
        encoding = locale.getpreferredencoding(False)
        metadata, names, line, blocks = _head(path, _blocks(fh), encoding)
        if not names or any(_NUMBER.fullmatch(name.encode().strip()) for name in names):
            raise ValueError(f"{path}: no column-name line before the data rows")
        if twice := [name for i, name in enumerate(names) if name in names[:i]]:
            raise ValueError(f"{path}: column {twice[0]} appears twice in the column-name line")
        missing = [k for k in required_keys if k not in metadata]
        if missing:
            raise ValueError(f"{path}: missing {'/'.join(missing)} metadata")
        missing = [c for c in required_columns if c not in names]
        if missing:
            raise ValueError(f"{path}: missing column(s) {', '.join(missing)}")
        width = len(names)
        try:
            chunks = [_parse_rows(rows, width, first, encoding)
                      for rows, first in _row_chunks(blocks, line)]
        except ValueError as exc:
            raise ValueError(f"{path}: malformed row ({exc})") from None
    return metadata, {name: np.concatenate([c[j::width] for c in chunks]) if chunks else np.empty(0)
                      for j, name in enumerate(names)}
