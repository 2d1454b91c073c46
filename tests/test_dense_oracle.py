"""The weighted-shift core against the dense core it replaced (``dense_reference``).

Each family is built and verified twice, on both cores, on the size ladder:
every built operator must have the dense matrix's bits (signed zeros
included) and every check the same residual, tolerance and verdict, to the
last bit.
"""

import numpy as np
import pytest

from dense_reference import dense_core
from spinphase.scenarios import build_bundle, resolve_scenario
from spinphase.verify import collect_checks

SPINS = ("1/2", "5/2", "25/2", "50")
SPIN_FAMILIES = {
    "su2": {},
    "suq2": {"q": 1.3},
    "witten": {"r": 1.2},
    "ab_map": {"q": 1.3},
    "f_deform": {"f_coeff": 0.01},
    "hermitian_f": {"q": 1.3},
}
POINTS = [
    {"family": family, "j": j, "theta0": 0.7, **params}
    for family, params in SPIN_FAMILIES.items()
    for j in SPINS
] + [
    {"family": family, "s": s, "phi0": 0.7}
    for family in ("oscillator", "q_oscillator", "jordan_schwinger")
    for s in (3, 12, 30)
]


def _run(values):
    """The built operators and the checks, or the builder's exception."""
    sc = resolve_scenario(values)
    try:
        bundle = build_bundle(sc)
    except ArithmeticError as exc:  # a builder's relation check, on either core
        return type(exc), str(exc)
    ops = {**bundle.operators, "H": bundle.hamiltonian.op, "target": bundle.operands["Jp"]}
    report = collect_checks(bundle)
    checks = [(c.name, c.residual.hex(), c.tol.hex(), c.passed) for c in report]
    return ops, checks


def _bits(op):
    return np.ascontiguousarray(op.mat).view(np.uint64).tolist()


@pytest.mark.parametrize("values", POINTS, ids=lambda v: f"{v['family']}-{v.get('j', v.get('s'))}")
def test_structured_core_matches_dense_core(values):
    got = _run(values)
    with dense_core():
        want = _run(values)
    if isinstance(want[0], type):
        assert got == want
        return
    (got_ops, got_checks), (want_ops, want_checks) = got, want
    assert got_checks == want_checks
    assert list(got_ops) == list(want_ops)
    for name in want_ops:
        assert _bits(got_ops[name]) == _bits(want_ops[name]), name


def test_dense_core_is_in_use():
    values = {"family": "jordan_schwinger", "s": 3}
    with dense_core():
        bundle = build_bundle(resolve_scenario(values))
    assert type(bundle.operators["Jp"]).__module__ == "dense_reference"
    assert type(build_bundle(resolve_scenario(values)).operators["Jp"]).__module__ == (
        "spinphase.operators"
    )
