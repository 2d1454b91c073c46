"""Seeded sweep of the vectorised ``%.17g`` kernel against ``format(x, '.17g')``
(a script; pytest does not collect it)::

    PYTHONPATH=src python3 tests/float17_sweep.py [--values 10000000] [--seed 0]

It draws float64 bit patterns in chunks of the writers' size: 7 in 8 with a
binary exponent in or next to the kernel's domain (1e-4 <= |x| < 1e17), the
rest any pattern, NaN and inf included.  It compares the kernel's text of
every value with Python's, exits 1 at the first mismatch and otherwise
prints how many values it checked.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from spinphase import _float17

CHUNK = 16384


def kernel_texts(x: np.ndarray) -> tuple[list[str], list[float]]:
    """The kernel's text of each value of ``x``, and the values it handed to
    its per-value fallback."""
    handed: list[float] = []

    def fallback(v: float) -> str:
        handed.append(v)
        return format(v, ".17g")

    buf = np.empty((len(x), _float17.WIDTH + 1), np.uint8)
    buf[:, :-1] = _float17.cells(x, fallback)
    buf[:, -1] = ord("\n")
    return _float17.text(buf).split("\n")[:-1], handed


def draw(rng: np.random.Generator, n: int) -> np.ndarray:
    """n values: 7 in 8 with a binary exponent in [-16, 58] (the domain spans
    [-14, 56]), the rest any bit pattern."""
    bits = rng.integers(0, 2**64, n, dtype=np.uint64)
    near = rng.random(n) < 7 / 8
    exponent = rng.integers(1023 - 16, 1023 + 59, n).astype(np.uint64) << np.uint64(52)
    bits[near] = (bits[near] & ~np.uint64(0x7FF << 52)) | exponent[near]
    return bits.view(np.float64)


def mismatch(x: np.ndarray) -> tuple[float, str, str] | None:
    """(value, kernel text, Python text) of the first value they disagree on."""
    got, _ = kernel_texts(x)
    want = [format(v, ".17g") for v in x.tolist()]
    if len(got) != len(want):
        return float("nan"), f"{len(got)} texts", f"{len(want)} values"
    for v, g, w in zip(x.tolist(), got, want):
        if g != w:
            return v, g, w
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--values", type=int, default=10_000_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    checked = 0
    while checked < args.values:
        x = draw(rng, min(CHUNK, args.values - checked))
        bad = mismatch(x)
        if bad is not None:
            v, got, want = bad
            print(f"mismatch at {v!r} ({v.hex()}): kernel {got!r}, format {want!r}")
            return 1
        checked += len(x)
    print(f"{checked} values checked, all equal to format(x, '.17g')")
    return 0


if __name__ == "__main__":
    sys.exit(main())
