"""The package's public names: declared once, in the core modules' __all__."""

import spinphase

API = [
    "AlgebraError", "BadSpinError", "CheckReport", "CheckResult", "DEFAULT_TOL",
    "DeformedTriple", "FiniteOscillator", "GridFunction", "Hamiltonian", "NegativeNormError",
    "NotDiagonalError", "NotPSDError", "Operator", "ParameterError", "PhaseOperator",
    "QOscillator", "ShapeError", "SplitError", "StructureFunction", "Su2Rep", "Tolerance",
    "Trajectory", "build_deformation", "build_finite_oscillator", "build_hermitian_deformation",
    "build_phase_operator", "build_q_oscillator", "build_scaled_deformation",
    "build_split_deformation", "build_su2", "build_suq2", "build_witten", "casimir",
    "commutator", "deformed_casimir", "derive_ladder_dynamics_from_phase", "diag_function",
    "dipole_hamiltonian", "discrete_antiderivative", "eigenoperator_residual", "evolve",
    "from_diagonal", "heisenberg_derivative", "identity", "jordan_schwinger",
    "linear_structure", "matrix_unit", "number_hamiltonian", "parse_spin",
    "phase_number_commutator_residual", "phase_recovery_ambiguity", "polar_decompose",
    "psd_sqrt", "q_number", "qbracket_structure", "r_commutator", "residual",
    "table_structure", "trajectory", "two_mode_hamiltonian", "zero",
]


def test_package_all_is_pinned():
    assert spinphase.__all__ == API
    assert all(getattr(spinphase, name) is not None for name in API)


def test_star_import_gives_the_api():
    namespace: dict = {}
    exec("from spinphase import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(API)
