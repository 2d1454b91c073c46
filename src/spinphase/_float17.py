"""Exact vectorised ``format(x, '.17g')`` for float64 arrays.

``cells(x, fallback)`` gives each value a 24-byte cell: its text, with NUL
bytes where the text has no character, so that deleting every NUL (``text``)
leaves the texts.  No text the writers emit contains a NUL.

Zeros, and finite values with 1e-4 <= |x| < 1e17, are formatted here: that is
where ``%.17g`` prints fixed notation, as no double in it rounds across either
end at 17 digits.  The text is the 17-digit N with N * 10**(k-16) nearest |x|,
ties to even, its trailing fractional zeros (and a bare point) removed:

* k = floor(log10|x|) comes from ``log10``, then is corrected by one where
  V = |x| * 10**(16-k) falls outside [1e16, 1e17);
* 10**p is exact for p <= 22, and Dekker's TwoProduct (a split at 2**27 + 1,
  no fused multiply-add) gives V = hi + lo exactly, as two doubles;
* hi >= 1e16 > 2**53 is an even integer, so N = hi + rint(lo): rounding lo
  half to even rounds V so too.  N never rounds up to 1e17, which needs
  |x| within 5e-18 (relative) below 10**(k+1): no double is, as the powers
  10**0 .. 10**17 are doubles with a relative gap >= 2**-53 below them, and
  below 1e-3, 1e-2 and 1e-1 the nearest doubles are further off too;
* the digits come from a table of 4-digit groups, laid out in uint64 lanes
  by byte masks that depend on k alone.

Every other value (non-finite, or printed in scientific notation) is
formatted one at a time by ``fallback``, as are all of them when fewer than
``MIN_VECTOR`` are in the domain.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

WIDTH = 24  # bytes per cell: '-1.2345678901234567e-300' is the longest text
# below this many values in the domain, formatting them one at a time costs
# less than the fixed cost of the kernel's ~80 numpy calls
MIN_VECTOR = 128

_SPLIT = 134217729.0  # 2**27 + 1
_LOW, _HIGH = np.array([1e-4, 1e17]).view(np.int64)  # the domain's ends, as bits


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """v = hi + lo with hi and lo each 26 significant bits (Dekker)."""
    c = v * _SPLIT
    hi = c - (c - v)
    return hi, v - hi


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """The kernel's read-only tables, built on first use, so that a process
    that formats no bulk output never builds them: 10**p for p in [0, 20]
    (exact, as p <= 22) with its split; the 4-digit groups in ASCII,
    little-endian in a uint64; for each k in [-4, 16] the byte masks that
    lay out a cell (see ``_layout``); and top[c], below which a uint64 has
    its top c + 1 bytes zero."""
    pow10 = np.array([float(10**p) for p in range(21)])
    d = np.arange(48, 58, dtype=np.uint64)  # '0'..'9'; a group's first digit in its low byte
    groups = d[:, None, None, None] | d[:, None, None] << 8 | d[:, None] << 16 | d << 24
    k = np.arange(-4, 17)[:, None]
    j = np.arange(WIDTH)
    point, lead = k + 6, np.minimum(4, k + 4)
    keep_a = (j < point) & ((j == 0) | (j > lead))
    dot = ((j == point) & (k < 16)) * 46  # no fraction at k = 16: no point
    masks = np.concatenate([keep_a * 255, (j > point) * 255, dot], axis=1)
    below = (j[:, None] > j) * 255  # below[c]: the bytes before byte c
    top = np.uint64(1) << np.arange(56, -8, -8, dtype=np.uint64)
    tables = np.stack([pow10, *_split(pow10)]), groups.ravel(), _lanes(masks), _lanes(below), top
    for table in tables:
        table.setflags(write=False)
    return tables


def _lanes(bytes_: np.ndarray) -> np.ndarray:
    """Rows of bytes, 8k a row, as k uint64 lanes each: (k, rows)."""
    return np.ascontiguousarray(bytes_.astype(np.uint8).view("<u8").T)


def _digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(N, k): the 17-digit N with N * 10**(k-16) closest to a, ties to
    even, for 1e-4 <= a < 1e17."""
    k = np.floor(np.log10(a)).astype(np.int64)
    np.minimum(np.maximum(k, -4, out=k), 16, out=k)
    hi, lo = _scaled(a, 16 - k)
    edge = np.flatnonzero((hi <= 1e16) | (hi >= 1e17))
    if len(edge):  # V = hi + lo outside [1e16, 1e17): log10 rounded across a power of ten
        h, l = hi[edge], lo[edge]
        step = ((h > 1e17) | ((h == 1e17) & (l >= 0))).astype(np.int64)
        step -= (h < 1e16) | ((h == 1e16) & (l < 0))
        k[edge] += step
        hi[edge], lo[edge] = _scaled(a[edge], 16 - k[edge])
    # hi >= 2**53 is even, so rounding lo half to even rounds hi + lo so too
    n = hi.astype(np.int64)
    n += np.rint(lo).astype(np.int64)
    return n, k


def _scaled(a: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**p = hi + lo exactly (Dekker's TwoProduct)."""
    s, sh, sl = np.take(_tables()[0], p, axis=1)
    ah, al = _split(a)
    hi = a * s
    return hi, ((ah * sh - hi) + ah * sl + al * sh) + al * sl


def _layout(n: np.ndarray, k: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """The cells of n * 10**(k-16), negative where ``negative``, as (3, len(n))
    uint64 lanes.

    Before masking, a cell is A: byte 0 the sign, then E = '0000' and the 17
    digits at bytes 1..21; and B, A shifted one byte up.  The point goes at
    byte k + 6: the integer part (E up to index k + 4, its leading zeros but
    one masked) comes from A, the fraction from B."""
    _, groups, masks, below, top = _tables()
    hi9 = n // 10**8
    d0 = hi9 // 10**8
    w = np.stack([hi9 - d0 * 10**8, n - hi9 * 10**8])  # digits 1..8 and 9..16
    hi4 = w // 10000
    lo4 = w - hi4 * 10000
    t = np.take(groups, hi4) | (np.take(groups, lo4) << np.uint64(32))
    a = np.empty((3, len(n)), "<u8")  # byte j of a text: bits 8j.. of its lane
    a[0] = (d0 + 48).astype(np.uint64) << np.uint64(40)
    a[0] |= (t[0] << np.uint64(48)) | np.uint64(0x3030303000)
    a[0] |= negative.astype(np.uint64) * np.uint64(45)
    a[1:] = t >> np.uint64(16)
    a[1] |= t[1] << np.uint64(48)
    b = a << np.uint64(8)
    b[1:] |= a[:2] >> np.uint64(56)
    row = k + 4
    for lane in range(3):
        a[lane] &= np.take(masks[lane], row)
        b[lane] &= np.take(masks[3 + lane], row)
        a[lane] |= b[lane] | np.take(masks[6 + lane], row)
    zeros = np.flatnonzero(lo4[1] % 10 == 0)  # a last digit 0: trailing zeros to strip
    if len(zeros):
        # digit '0' -> byte 0; the last digit is a lane's top byte
        nonzero = t[:, zeros] ^ np.uint64(0x3030303030303030)
        lz = (nonzero[..., None] < top).sum(axis=-1)  # (2, len(zeros)) zero digits at the end
        tz = lz[1] + (lz[1] == 8) * lz[0]
        frac = 16 - k[zeros]
        strip = np.minimum(tz, frac)
        a[:, zeros] &= np.take(below, 23 - strip - (strip == frac), axis=1)
    return a


def cells(x: np.ndarray, fallback: Callable[[float], str]) -> np.ndarray:
    """(len(x), WIDTH) uint8: the ``.17g`` text of each value of the float64
    array ``x``, NUL-padded.  ``fallback`` formats the values outside the
    vectorised domain (non-finite, or in scientific notation), and all but
    the zeros when fewer than ``MIN_VECTOR`` are in it; on a finite value
    it must return ``format(x, '.17g')``."""
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    a = np.abs(x)
    bits = a.view(np.int64)  # ordered as |x| is, NaN above inf: no float compare
    negative = np.signbit(x)
    fast = (bits >= _LOW) & (bits < _HIGH)
    n_fast = np.count_nonzero(fast)
    if n_fast == len(x) and n_fast >= MIN_VECTOR:
        return _layout(*_digits(a), negative).T.copy().view(np.uint8)
    out = np.zeros((len(x), 3), "<u8")
    out[:, 0] = np.where(negative, np.uint64(0x302D), np.uint64(0x3000))  # "-0" or "0"
    if n_fast >= MIN_VECTOR:
        i = np.flatnonzero(fast)
        out[i] = _layout(*_digits(a[i]), negative[i]).T
        rest = np.flatnonzero(~fast & (bits != 0))
    else:
        rest = np.flatnonzero(bits)
    if len(rest):
        texts = [fallback(v) for v in x[rest].tolist()]
        out[rest] = np.array(texts, dtype=f"S{WIDTH}").view("<u8").reshape(-1, 3)
    return out.view(np.uint8)


def text(buf: np.ndarray) -> str:
    """The ASCII text of a byte array of cells and separators, NULs deleted."""
    return buf.tobytes().translate(None, b"\0").decode("ascii")
