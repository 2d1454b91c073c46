"""The vectorised ``%.17g`` kernel (``spinphase._float17``) against Python's
``format(x, '.17g')``, and the JSON and CSV writers on outputs large enough
to reach it against the per-value reference writers of test_serialize."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from float17_sweep import CHUNK, draw, kernel_texts
from spinphase import Operator, _float17
from spinphase.serialize import _BULK, _CHUNK, dumps, operator_to_jsonable, trajectory_csv_lines
from test_serialize import reference_csv, reference_emit

# enough values inside the domain that the kernel, not the fallback, formats them
PAD = np.linspace(1.5, 2.5, _float17.MIN_VECTOR)


def outside_domain(x: np.ndarray) -> np.ndarray:
    """The nonzero values the kernel leaves to its fallback."""
    with np.errstate(invalid="ignore"):
        a = np.abs(x)
        return x[~((a >= 1e-4) & (a < 1e17)) & (x != 0)]


def assert_exact(values) -> None:
    """Among PAD, every value formats as Python formats it, and the fallback
    is handed exactly the nonzero values outside the domain."""
    x = np.concatenate([PAD, np.asarray(values, dtype=np.float64), PAD])
    got, handed = kernel_texts(x)
    want = [format(v, ".17g") for v in x.tolist()]
    assert len(got) == len(want)
    assert [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w] == []
    assert np.array_equal(np.array(handed), outside_domain(x), equal_nan=True)


def signed(values) -> list[float]:
    return [s * v for v in values for s in (1.0, -1.0)]


def test_random_bit_patterns():
    rng = np.random.default_rng(20261019)
    for _ in range(2**20 // CHUNK):
        assert_exact(draw(rng, CHUNK))


def test_zeros_and_subnormals():
    rng = np.random.default_rng(3)
    subnormal = rng.integers(1, 2**52, 500, dtype=np.uint64).view(np.float64)
    edges = [0.0, 5e-324, 1e-323, 2.2250738585072009e-308, 2.2250738585072014e-308]
    assert_exact(signed(edges) + signed(subnormal.tolist()))


def test_powers_of_ten_and_their_neighbours():
    powers = [float(f"1e{m}") for m in range(-5, 19)]
    values = [y for p in powers for y in (math.nextafter(p, 0.0), p, math.nextafter(p, math.inf))]
    assert_exact(signed(values))


def test_exact_ties_round_half_to_even():
    """x = m * 2**(k-17) with m odd makes x * 10**(16-k) = n + 1/2 exactly;
    such doubles exist for k <= 15 (at k = 16 they are integers)."""
    rng = random.Random(5)
    ties, parities = [], set()
    for k in range(-4, 16):
        lo = math.ceil(Fraction(10) ** k * 2 ** (17 - k))
        hi = min(math.ceil(Fraction(10) ** (k + 1) * 2 ** (17 - k)), 2**53)
        for _ in range(40):
            x = math.ldexp(rng.randrange(lo, hi) | 1, k - 17)
            n2 = Fraction(x) * 10 ** (16 - k) * 2
            assert n2.denominator == 1 and n2.numerator % 2 == 1  # a tie
            parities.add(n2.numerator // 2 % 2)
            ties.append(x)
    assert parities == {0, 1}  # ties that round down and that round up
    assert_exact(signed(ties + [1000000000000000.25, 100000000000000.125]))


def test_no_double_in_the_domain_rounds_up_to_a_power_of_ten():
    """A carry to 1e17 needs |x| within 5e-18 (relative) below 10**m: the
    largest double below each power m in [-3, 17] is further off."""
    for m in range(-3, 18):
        nearest = float(Fraction(10) ** m)
        below = nearest if Fraction(nearest) < Fraction(10) ** m else math.nextafter(nearest, 0.0)
        assert Fraction(below) * 10 ** (17 - m) < 10**17 - Fraction(1, 2)
    # outside the domain such carries occur, and the fallback prints them
    carries = [1e-305, 1e-243, 1e-176, 1e-175, 1e-174, 1e-79, 1e-78, 1e-73]
    assert all(Fraction(x) < Fraction(f"{x!r}") for x in carries)
    assert_exact(signed(carries))


def test_domain_edges():
    edges = [1e-4, 1e17]
    assert_exact(signed([y for e in edges for y in (math.nextafter(e, 0.0), e,
                                                     math.nextafter(e, math.inf))]))


def test_non_finite_values():
    assert_exact([math.nan, math.inf, -math.inf, -math.nan, 1.7976931348623157e308])


def test_few_values_in_the_domain_go_to_the_fallback():
    got, handed = kernel_texts(np.array([1.5, 0.0, -0.0, 2.5, 1e300]))
    assert got == ["1.5", "0", "-0", "2.5", "1.0000000000000001e+300"]
    assert handed == [1.5, 2.5, 1e300]


def magnitudes(rng: np.random.Generator, shape) -> np.ndarray:
    """Signed values from 1e-8 to 1e20: in and outside the domain, a tenth zero."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 21, shape)
    x[rng.random(shape) < 0.1] = 0.0
    return x


SPECIALS = [math.nan, math.inf, -math.inf, 1e-300, -0.0, 1e17, 5e-324]


def complex_array(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """re + i im, part by part (``re + 1j * im`` turns an infinite im into a NaN re)."""
    z = np.empty(re.shape, np.complex128)
    z.real, z.imag = re, im
    return z


@pytest.mark.parametrize("dim", [5, 6, 20, 130])
def test_operator_json_matches_reference(dim):
    """Below, at and past the kernel's thresholds: 130 x 130 entries take
    more than one chunk, with non-finite and out-of-domain values on each
    side of the first chunk edge."""
    assert 5 * 5 < _BULK <= 6 * 6 and 20 * 20 > 2 * _float17.MIN_VECTOR and 130 * 130 > _CHUNK
    rng = np.random.default_rng(dim)
    re, im = magnitudes(rng, (dim, dim)), magnitudes(rng, (dim, dim))
    edge = min(_CHUNK // dim, dim)  # the first row of the second chunk, if any
    for k, (r, c) in enumerate([(0, 0), (edge - 1, dim - 1), (edge % dim, 0), (dim - 1, dim - 1)]):
        re[r, c], im[r, c] = SPECIALS[k], SPECIALS[-1 - k]
    payload = operator_to_jsonable(Operator(complex_array(re, im), "A"))
    want = {"dim": dim, "label": "A", "re": re.tolist(), "im": im.tolist()}
    assert dumps(payload) == reference_emit(want) + "\n"


def test_trajectory_csv_past_the_chunk_matches_reference():
    """Three tracks over three chunks of time steps, with non-finite and
    out-of-domain values on each side of the chunk edges."""
    rng = np.random.default_rng(11)
    steps = _CHUNK // 6
    times = np.abs(magnitudes(rng, 3 * steps - 5))
    re, im = magnitudes(rng, (len(times), 3)), magnitudes(rng, (len(times), 3))
    for k, i in enumerate([0, steps - 1, steps, 2 * steps - 1, 2 * steps, len(times) - 1]):
        times[i] = SPECIALS[k]
        re[i, k % 3], im[i, (k + 1) % 3] = SPECIALS[-1 - k], SPECIALS[k]
    z = complex_array(re, im)
    tracks = [((r, r + 1), tuple(map(complex, z[:, r]))) for r in range(3)]
    assert trajectory_csv_lines(times.tolist(), tracks) == reference_csv(times.tolist(), tracks)
