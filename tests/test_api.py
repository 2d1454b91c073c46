"""The package's public names: declared once, in the core modules' __all__,
and each documented in README's Library section."""

import re
from pathlib import Path

import spinphase

API = [
    "AlgebraError", "BadSpinError", "CheckReport", "CheckResult", "DEFAULT_TOL",
    "DeformedTriple", "FiniteOscillator", "Hamiltonian", "NegativeNormError",
    "NotDiagonalError", "NotPSDError", "Operator", "ParameterError", "PhaseOperator",
    "QOscillator", "ShapeError", "SplitError", "StructureFunction", "Su2Rep", "Tolerance",
    "Trajectory", "build_deformation", "build_finite_oscillator",
    "build_hermitian_deformation", "build_phase_operator", "build_q_oscillator",
    "build_scaled_deformation", "build_split_deformation", "build_su2", "build_suq2",
    "build_witten", "casimir", "commutator", "derive_ladder_dynamics_from_phase",
    "dipole_hamiltonian", "discrete_antiderivative", "eigenoperator_residual", "evolve",
    "from_diagonal", "heisenberg_derivative", "identity", "jordan_schwinger",
    "linear_structure", "matrix_unit", "number_hamiltonian", "parse_spin",
    "phase_number_commutator_residual", "polar_decompose", "psd_sqrt", "q_number",
    "qbracket_structure", "r_commutator", "residual", "trajectory", "two_mode_hamiltonian",
    "zero",
]


def test_package_all_is_pinned():
    assert spinphase.__all__ == API
    assert all(getattr(spinphase, name) is not None for name in API)


def test_star_import_gives_the_api():
    namespace: dict = {}
    exec("from spinphase import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(API)


def test_every_public_name_is_documented():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"`(\w+)", library))
    assert [name for name in spinphase.__all__ if name not in documented] == []
