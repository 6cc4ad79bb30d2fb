"""The one rule by which the package keeps a computed value for reuse within a process.

A function wrapped by `cached` keeps what it returns:
- keyed by its call's arguments and their types, so that a `float` and an `np.float64` carrier,
  or int and float grid fields, are kept apart; callers pass plain values (a grid's fields,
  never the grid), so that no grid, nor its `omegas` array, is kept;
- with every array of the value made read-only, so that no caller can change a shared value;
- only when the call returns: an error is raised again on every call, never kept.

Every cache shares one least-recently-used order and one budget of CACHE_BYTES.  After an entry
is added, the least recently used entries are dropped until the held bytes are within the
budget; the entry just added is never dropped, so a value larger than the budget still serves
the call that built it and the calls that reuse it before another entry is added.  An entry is
charged the bytes of its arrays plus _ENTRY_BYTES, so entries without arrays are bounded too.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from functools import update_wrapper
from typing import NamedTuple

import numpy as np

# One fig2-fig5 pass at n = 2^20 charges 137 MiB: chirps 64, the reference 39, the frequency
# cells 18 and one material's wavevector tables 16.  160 MiB keeps that pass whole, with room for
# a second material's tables, so that no one-shot run at n <= 2^20 builds a value twice; a 2^16
# pass charges 8.6 MiB.
CACHE_BYTES = 160 << 20
_ENTRY_BYTES = 1 << 10  # besides its arrays; a carrier Contrast and its key hold about 0.6 KB

_entries: OrderedDict = OrderedDict()  # hash of key: (key, value, bytes charged), oldest first
_held = 0  # bytes charged to the entries


class CacheInfo(NamedTuple):
    hits: int
    misses: int
    currsize: int  # entries kept
    nbytes: int  # bytes charged to them


def _arrays(value):
    """Every array in a value, through tuples and dataclass fields.  Reading the fields, not
    `vars()`, leaves an instance's attributes as fast to read as before (a `Contrast`'s material
    is hashed on every lookup)."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _arrays(getattr(value, field.name))


def _keep(h, entry):
    """Add an entry, then drop the least recently used others until the budget holds."""
    global _held
    _held += entry[2] - _entries.pop(h, (0, 0, 0))[2]  # drops another key of the same hash
    _entries[h] = entry
    while _held > CACHE_BYTES and len(_entries) > 1:
        _held -= _entries.popitem(last=False)[1][2]


def cached(fn):
    """`fn`, keeping the values it returns by the module's rule, with `cache_info()` and
    `cache_clear()` for its own entries."""
    hits = misses = 0

    def lookup(*args):
        nonlocal hits, misses
        key = (fn, *args, *map(type, args))
        h = hash(key)  # once: a frozen dataclass argument hashes its fields on every call
        entry = _entries.get(h)
        if entry is not None and entry[0] == key:
            _entries.move_to_end(h)
            hits += 1
            return entry[1]
        misses += 1
        value = fn(*args)
        nbytes = _ENTRY_BYTES
        for array in {id(a): a for a in _arrays(value)}.values():
            array.setflags(write=False)
            nbytes += array.nbytes
        _keep(h, (key, value, nbytes))
        return value

    def mine():
        return [h for h, entry in _entries.items() if entry[0][0] is fn]

    def cache_info() -> CacheInfo:
        charged = [_entries[h][2] for h in mine()]
        return CacheInfo(hits, misses, len(charged), sum(charged))

    def cache_clear():
        nonlocal hits, misses
        global _held
        for h in mine():
            _held -= _entries.pop(h)[2]
        hits = misses = 0

    lookup.cache_info, lookup.cache_clear = cache_info, cache_clear
    return update_wrapper(lookup, fn)
