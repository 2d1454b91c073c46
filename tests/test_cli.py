"""CLI contract: exit codes, file outputs, and byte-identical reruns."""

import argparse
import contextlib
import gc
import io
import itertools
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spinphase
from spinphase import operators
from spinphase import cli, verify
from spinphase.cli import _CATEGORIES, _summary_cells, main
from spinphase.families import spin_frame
from spinphase.report import CheckReport
from spinphase.scenarios import resolve_scenario
from spinphase.serialize import format_float
from spinphase.verify import run_verify


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestVerifyExitCodes:
    def test_all_checks_pass(self, capsys):
        rc = main(["verify", "--family", "suq2", "--j", "5/2", "--q", "1.3", "--muB", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "checks passed" in out

    def test_check_failure_negative_norm(self, capsys):
        rc = main(["verify", "--family", "hermitian_f", "--j", "1", "--q-phase", "3"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "negative norm" in out

    @pytest.mark.parametrize("turns", ["1e12", "1e13", "1e300"])
    def test_phase_valued_q_near_one_passes(self, capsys, turns):
        # q = exp(2*pi*i/turns): the q-bracket is regular as arg q -> 0
        rc = main(["verify", "--family", "hermitian_f", "--j", "5/2", "--q-phase", turns])
        assert rc == 0
        assert "24/24 checks passed" in capsys.readouterr().out

    def test_phase_valued_q_near_minus_one_is_a_usage_error(self, capsys):
        argv = ["verify", "--family", "hermitian_f", "--j", "5/2", "--q-phase", "2.0000000000001"]
        rc = main(argv)
        assert rc == 2
        assert "singular q-bracket at q = -1" in capsys.readouterr().err

    def test_validation_error_bad_spin(self, capsys):
        rc = main(["verify", "--family", "su2", "--j", "0.4"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "bad spin" in err

    def test_validation_error_missing_r(self, capsys):
        assert main(["verify", "--family", "witten", "--j", "1"]) == 2

    def test_validation_error_missing_family(self, capsys):
        assert main(["verify", "--j", "1"]) == 2

    def test_argparse_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--family", "not_a_family", "--j", "1"])
        assert exc.value.code == 2

    def test_report_contents(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        rc = main(
            ["verify", "--family", "suq2", "--j", "5/2", "--q", "1.3", "--report", str(report)]
        )
        capsys.readouterr()
        assert rc == 0
        payload = read_json(report)
        assert payload["all_pass"] is True
        assert payload["scenario"]["family"] == "suq2"
        assert payload["scenario"]["j"] == "5/2"
        assert len(payload["checks"]) >= 15
        assert set(payload["checks"][0]) == {"name", "residual", "tol", "pass", "detail"}

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            main(["verify", "--family", "witten", "--j", "3/2", "--r", "0.8", "--report", str(path)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_infinite_residual_report_is_json(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        rc = main(
            ["verify", "--family", "hermitian_f", "--j", "1", "--q-phase", "3",
             "--report", str(report)]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "residual=inf" in out  # stdout keeps format_float's text
        payload = read_json(report)
        assert payload["checks"][0]["name"] == "construction"
        assert payload["checks"][0]["residual"] == float("inf")


# one scenario per family; oscillator / q_oscillator builds print U sqrt(N),
# whose zero entries a bare elementwise product leaves as -0.0
_DIFFERENTIAL_SCENARIOS = [
    ["--family", "su2", "--j", "35/2", "--theta0", "0.731"],
    ["--family", "suq2", "--j", "35/2", "--q", "1.05", "--theta0", "4.9"],
    ["--family", "witten", "--j", "35/2", "--r", "1.2", "--theta0", "0.731"],
    ["--family", "ab_map", "--j", "35/2", "--q", "1.05", "--theta0", "4.9"],
    ["--family", "f_deform", "--j", "35/2", "--theta0", "0.731"],
    ["--family", "hermitian_f", "--j", "35/2", "--q", "1.05", "--theta0", "4.9"],
    ["--family", "oscillator", "--s", "40", "--phi0", "4.9"],
    ["--family", "q_oscillator", "--s", "40", "--phi0", "0.731"],
    ["--family", "jordan_schwinger", "--s", "6", "--phi0", "4.9"],
]


class TestScalingPathDifferential:
    """Forming products on the diagonals changes no CLI output byte."""

    @staticmethod
    def _outputs(tmp_path, capsys, flags, tag):
        report = tmp_path / f"{tag}.json"
        rc_verify = main(["verify", *flags, "--report", str(report)])
        verify_out = capsys.readouterr()
        rc_build = main(["build", *flags])
        build_out = capsys.readouterr()
        return rc_verify, verify_out, report.read_bytes(), rc_build, build_out

    @pytest.mark.parametrize("flags", _DIFFERENTIAL_SCENARIOS, ids=lambda f: f[1])
    def test_dense_only_gives_same_bytes(self, tmp_path, capsys, monkeypatch, flags):
        found = []

        def spy(a, b):
            decided = structured(a, b)
            found.append(decided)
            return decided

        structured = operators._structured
        monkeypatch.setattr(operators, "_structured", spy)
        fast = self._outputs(tmp_path, capsys, flags, "structured")
        assert any(found)  # the structured path ran
        monkeypatch.setattr(operators, "_structured", lambda a, b: False)
        dense = self._outputs(tmp_path, capsys, flags, "dense")
        assert fast == dense


class TestBuild:
    def test_su2_output(self, tmp_path, capsys):
        out = tmp_path / "ops.json"
        rc = main(["build", "--family", "su2", "--j", "1/2", "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        payload = read_json(out)
        assert sorted(payload["operators"]) == ["J0", "Jm", "Jp"]
        jp = payload["operators"]["Jp"]
        assert np.allclose(np.array(jp["re"]) + 1j * np.array(jp["im"]), [[0, 0], [1, 0]])
        assert payload["metadata"]["basis"] == "ascending_m"

    def test_witten_provenance(self, tmp_path, capsys):
        out = tmp_path / "w.json"
        rc = main(["build", "--family", "witten", "--j", "1", "--r", "1.2", "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        payload = read_json(out)
        assert payload["provenance"]["map"] == "witten"
        assert payload["provenance"]["params"]["r"] == 1.2
        assert sorted(payload["operators"]) == ["W0", "Wm", "Wp"]

    def test_q_oscillator_metadata(self, tmp_path, capsys):
        out = tmp_path / "q.json"
        rc = main(["build", "--family", "q_oscillator", "--s", "3", "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        payload = read_json(out)
        assert payload["metadata"]["s"] == 3
        assert payload["metadata"]["n0"] == 1.0
        assert payload["metadata"]["radicands"] == pytest.approx([0.0, 1.0, 2.0, 1.0], abs=1e-12)
        assert payload["metadata"]["q_arg"] == pytest.approx(2 * np.pi / 4)

    def test_build_negative_norm_exits_one(self, capsys):
        rc = main(["build", "--family", "hermitian_f", "--j", "3/2", "--q-phase", "5"])
        assert rc == 1
        assert "negative norm" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            main(["build", "--family", "suq2", "--j", "2", "--q", "1.3", "--out", str(path)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


class TestEvolve:
    def test_phase_law_values(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        rc = main(
            [
                "evolve", "--family", "su2", "--j", "1/2", "--muB", "1",
                "--t-max", "3.14159265358979", "--steps", "3", "--out", str(out),
            ]
        )
        capsys.readouterr()
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,row,col,re,im"
        assert len(lines) == 4  # header + one element at three times
        last = lines[3].split(",")
        assert float(last[3]) == pytest.approx(-1.0, abs=1e-12)
        mid = lines[2].split(",")
        assert float(mid[4]) == pytest.approx(-1.0, abs=1e-12)  # -i at t = pi/2

    def test_steps_two_samples_endpoints_only(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        main(
            ["evolve", "--family", "su2", "--j", "1/2", "--t-max", "1.0", "--steps", "2",
             "--out", str(out)]
        )
        capsys.readouterr()
        lines = out.read_text().strip().splitlines()
        times = {line.split(",")[0] for line in lines[1:]}
        assert times == {"0", "1"}

    def test_two_mode_cycle(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        rc = main(
            [
                "evolve", "--family", "jordan_schwinger", "--s", "3",
                "--omega1", "1", "--omega2", "2",
                "--t-max", "6.283185307179586", "--steps", "3",
                "--elements", "4,1", "--out", str(out),
            ]
        )
        capsys.readouterr()
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        first = lines[1].split(",")
        last = lines[3].split(",")
        assert float(last[3]) == pytest.approx(float(first[3]), abs=1e-9)
        assert float(last[4]) == pytest.approx(float(first[4]), abs=1e-9)

    def test_default_elements_cover_all_nonzero(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        main(["evolve", "--family", "su2", "--j", "1", "--t-max", "1.0", "--steps", "2",
              "--out", str(out)])
        capsys.readouterr()
        lines = out.read_text().strip().splitlines()
        elements = {tuple(line.split(",")[1:3]) for line in lines[1:]}
        assert elements == {("1", "0"), ("2", "1")}

    def test_repeated_element_prints_one_track(self, tmp_path, capsys):
        base = ["evolve", "--family", "su2", "--j", "1", "--t-max", "3", "--steps", "4"]
        once, twice = tmp_path / "once.csv", tmp_path / "twice.csv"
        assert main(base + ["--elements", "1,0", "--out", str(once)]) == 0
        assert main(base + ["--elements", "1,0", "--elements", "1,0", "--out", str(twice)]) == 0
        capsys.readouterr()
        assert twice.read_bytes() == once.read_bytes()
        assert len(once.read_text().splitlines()) == 5

    @pytest.mark.parametrize("t_max", ["nan", "inf"])
    def test_non_finite_t_max_is_a_usage_error(self, t_max, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["evolve", "--family", "su2", "--j", "1", "--t-max", t_max, "--steps", "4"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == f"spinphase evolve: --t-max must be finite, got {t_max}\n"

    def test_grid_validation(self, capsys):
        assert main(["evolve", "--family", "su2", "--j", "1", "--t-max", "-1", "--steps", "3"]) == 2
        assert main(["evolve", "--family", "su2", "--j", "1", "--t-max", "1", "--steps", "1"]) == 2
        assert main(
            ["evolve", "--family", "su2", "--j", "1", "--t-max", "1", "--steps", "3",
             "--elements", "zz"]
        ) == 2
        capsys.readouterr()


class TestSweep:
    def test_q_grid_all_pass(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(
            ["sweep", "--family", "suq2", "--j", "1", "--param", "q:1.0001:3:5",
             "--out", str(out)]
        )
        capsys.readouterr()
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("q,max_algebra,max_phase,max_dynamics,max_derivation,min_control")
        assert len(lines) == 6
        assert all(line.split(",")[6] == "true" for line in lines[1:])

    def test_witten_grid_avoiding_one(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(
            ["sweep", "--family", "witten", "--j", "1", "--param", "r:0.5:2:20",
             "--out", str(out)]
        )
        capsys.readouterr()
        assert rc == 0

    def test_error_row_recorded_for_invalid_point(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        # count 4 puts r = 1.0 exactly on the grid; that point errors, the rest run
        rc = main(
            ["sweep", "--family", "witten", "--j", "1", "--param", "r:0.5:2:4",
             "--out", str(out)]
        )
        capsys.readouterr()
        assert rc == 1
        lines = out.read_text().strip().splitlines()
        bad = [line for line in lines[1:] if line.split(",")[6] == "false"]
        assert len(bad) == 1
        assert "r" in bad[0].split(",")[-1]

    def test_spin_grid(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(
            ["sweep", "--family", "su2", "--param", "j:0.5:3:6", "--out", str(out)]
        )
        capsys.readouterr()
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 7

    def test_fractional_spin_grid_rejected(self, capsys):
        rc = main(["sweep", "--family", "su2", "--param", "j:0.5:3:7"])
        capsys.readouterr()
        assert rc == 2

    def test_jobs_do_not_change_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--family", "suq2", "--j", "1", "--param", "q:0.5:2:6"]
        main(args + ["--jobs", "1", "--out", str(a)])
        main(args + ["--jobs", "3", "--out", str(b)])
        assert main(args + ["--jobs", "0"]) == 2
        assert capsys.readouterr().err == "spinphase sweep: --jobs must be >= 1, got 0\n"
        assert a.read_bytes() == b.read_bytes()

    def test_two_parameter_grid(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(
            ["sweep", "--family", "suq2", "--param", "j:0.5:1.5:3",
             "--param", "q:0.5:2:3", "--out", str(out)]
        )
        capsys.readouterr()
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("j,q,")
        assert len(lines) == 10

    def test_unknown_parameter_rejected(self, capsys):
        assert main(["sweep", "--family", "suq2", "--j", "1", "--param", "zz:0:1:3"]) == 2
        capsys.readouterr()

    def test_irrelevant_parameter_rejected(self, capsys):
        # r is a Witten parameter; suq2 does not consume it
        assert main(["sweep", "--family", "suq2", "--j", "1", "--param", "r:0.5:2:3"]) == 2
        capsys.readouterr()

    def test_repeated_parameter_rejected(self, capsys):
        rc = main(["sweep", "--family", "suq2", "--j", "1",
                   "--param", "q:1.1:2:2", "--param", "q:2:3:2"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == (
            "spinphase sweep: --param q is given twice; sweep each parameter once\n"
        )

    @pytest.mark.parametrize("grids", [["q:1.1:2:3"], ["q:1.1:2:2", "q_phase:3:5:2"]])
    def test_q_under_q_phase_rejected(self, capsys, grids):
        # hermitian_f reads the phase-valued q instead, so every row would run at it
        flags = ["--q-phase", "3"] if len(grids) == 1 else []
        argv = ["sweep", "--family", "hermitian_f", "--j", "1", *flags]
        for grid in grids:
            argv += ["--param", grid]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == (
            "spinphase sweep: cannot sweep q with --q-phase set: "
            "the phase-valued q replaces it\n"
        )


def _flags(base: dict) -> list[str]:
    argv = []
    for key, value in base.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    return argv


def _sweep_rows(base: dict, grids: list[str]) -> list[str]:
    argv = ["sweep", *_flags(base)]
    for grid in grids:
        argv += ["--param", grid]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    return out.getvalue().splitlines()[1:]


def _verify_rows(base: dict, grids: list[str]) -> list[str]:
    """The sweep rows built from a fresh run_verify of each resolved point; a
    point whose resolution or run raises an AlgebraError gives its error row."""
    axes = []
    for grid in grids:
        name, start, stop, count = grid.split(":")
        axes.append([(name, v) for v in np.linspace(float(start), float(stop), int(count))])
    rows = []
    for point in itertools.product(*axes):
        try:
            report, _ = run_verify(resolve_scenario({**base, **dict(point)}))
            (cells,) = _summary_cells(report)
        except operators.AlgebraError as exc:
            cells = ["NaN"] * 5 + ["false", str(exc).replace(",", ";")]
        rows.append(",".join([format_float(float(v)) for _, v in point] + cells))
    return rows


# per spin family: a 2-D grid with a frame field (j, theta0 or muB) inner,
# then one with it outer; hermitian_f also at a phase-valued q, whose p = 3
# point fails its construction
_FRAME_GRIDS = [
    ({"family": "su2", "j": "1"}, ["muB:-1:1:3", "theta0:0.3:1.3:2"]),
    ({"family": "su2", "muB": 0.5}, ["theta0:0.3:1.3:2", "j:0.5:1.5:3"]),
    ({"family": "suq2", "j": "3/2"}, ["q:1.1:2:3", "theta0:0.3:1.3:2"]),
    ({"family": "suq2", "theta0": 1.3}, ["j:0.5:1.5:3", "q:0.5:2:2"]),
    ({"family": "witten", "theta0": 1.3}, ["r:1.1:2:2", "j:0.5:1.5:3"]),
    ({"family": "witten", "j": "3/2"}, ["muB:-1:1:3", "r:0.5:0.8:2"]),
    ({"family": "ab_map", "j": "3/2"}, ["q:1.1:1.5:2", "muB:0.5:1:2"]),
    ({"family": "ab_map", "j": "3/2"}, ["theta0:0.3:1.3:2", "q:0.8:1.3:2"]),
    ({"family": "f_deform", "j": "1"}, ["f_coeff:0:0.2:3", "theta0:0.3:1.3:2"]),
    ({"family": "f_deform", "theta0": 1.3}, ["j:0.5:2:4", "f_coeff:0.01:0.1:2"]),
    ({"family": "hermitian_f", "theta0": 1.3}, ["q:1.1:1.5:2", "j:0.5:1:2"]),
    ({"family": "hermitian_f", "j": "3/2"}, ["muB:0.5:1.5:3", "q:1.2:1.4:2"]),
    ({"family": "hermitian_f", "j": "1"}, ["q_phase:3:7:3", "theta0:0.3:1.3:2"]),
]


def test_sweep_frame_that_cannot_be_built_gives_error_rows(capsys):
    # the muB = 1e307 frame's hamiltonian overflows: its point gets an error row,
    # the other point keeps its row, and the sweep exits 1 instead of 2
    rc = main(["sweep", "--family", "su2", "--j", "50", "--param", "muB:1:1e307:2"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.err == ""
    header, first, second = captured.out.splitlines()
    assert header.startswith("muB,") and first.startswith("1,") and first.endswith(",")
    assert second.split(",", 7)[1:] == [
        "NaN", "NaN", "NaN", "NaN", "NaN", "false",
        "the hamiltonian's energies are not finite at --muB=1e+307",
    ]


def test_sweep_spin_beyond_every_float_gives_an_error_row(capsys):
    # j = 1e308 parses as an exact half-integer, but 2j + 1 is no finite float
    rc = main(["sweep", "--family", "su2", "--j", "1/2", "--param", "j:0.5:1e308:2"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.err == ""
    header, first, second = captured.out.splitlines()
    assert first.startswith("0.5,") and first.endswith(",true,")
    assert second.split(",", 7)[1:] == [
        "NaN", "NaN", "NaN", "NaN", "NaN", "false",
        "--j is too large: its dimension is not a finite float",
    ]


class TestSweepRowsAreVerifies:
    """A sweep shares one phase frame among the points with the same (j,
    theta0, muB, tol); every row still equals the verify of its own point."""

    @pytest.mark.parametrize(
        "base, grids", _FRAME_GRIDS, ids=lambda v: "-".join(v) if isinstance(v, list) else None
    )
    def test_row_is_the_verify_of_its_point(self, base, grids):
        assert _sweep_rows(base, grids) == _verify_rows(base, grids)

    @pytest.mark.parametrize(
        "base, grids",
        [
            # four singular-F error rows around one passing row
            ({"family": "f_deform", "j": "1"}, ["f_coeff:-1:1:5"]),
            # p = 3 fails its construction (inf); p = 4..7 pass
            ({"family": "hermitian_f", "j": "1"}, ["q_phase:3:7:5"]),
            # r = 1 is a usage error row between two passing rows
            ({"family": "witten", "j": "3/2"}, ["r:0.5:1.5:3"]),
            # the left split: no hermitian pair, except within tolerance at q = 1
            ({"family": "ab_map", "j": "2", "split": "left"}, ["q:0.5:2.5:5"]),
            # a row that runs, then two whose weights overflow: error rows
            ({"family": "witten", "j": "50"}, ["r:1.2:1e10:3"]),
            ({"family": "suq2", "j": "3/2"}, ["q:1.3:1e300:3"]),
            # a row that runs, then two whose casimir table overflows
            ({"family": "suq2", "j": "1/2"}, ["q:1.3:1e300:3"]),
        ],
        ids=[
            "f_deform-singular", "hermitian_f-negative-norm", "witten-r-1", "ab_map-left",
            "witten-overflow", "suq2-overflow", "suq2-casimir-overflow",
        ],
    )
    def test_edge_grid_row_is_the_verify_of_its_point(self, capsys, tmp_path, base, grids):
        # split has no flag: it reaches the sweep through a scenario file
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"split": base.get("split", "symmetric")}))
        argv = ["sweep", "--scenario", str(scenario), *_flags(
            {k: v for k, v in base.items() if k != "split"}
        )]
        for grid in grids:
            argv += ["--param", grid]
        main(argv)
        assert capsys.readouterr().out.splitlines()[1:] == _verify_rows(base, grids)

    def test_overflowing_points_are_error_rows(self, capsys):
        rc = main(["sweep", "--family", "witten", "--j", "50", "--param", "r:1.2:1e10:3"])
        errors = [row.rsplit(",", 1)[1] for row in capsys.readouterr().out.splitlines()[1:]]
        assert rc == 1
        assert errors == [
            "",
            "r=5000000000.599999 overflows Witten's map at j=50",
            "r=10000000000.0 overflows Witten's map at j=50",
        ]

    def test_overflowing_casimir_points_are_error_rows(self, capsys):
        rc = main(["sweep", "--family", "suq2", "--j", "1/2", "--param", "q:1e299:1e300:3"])
        errors = [row.rsplit(",", 1)[1] for row in capsys.readouterr().out.splitlines()[1:]]
        assert rc == 1
        assert errors == [
            f"q={q} overflows SU_q(2)'s casimir at j=1/2" for q in ("1e+299", "5.5e+299", "1e+300")
        ]

    def test_raising_point_ends_the_sweep_as_before(self, capsys):
        # q > ~2.58 at j = 5 violates the SU_q(2) casimir identity inside the builder
        with pytest.raises(ArithmeticError) as info:
            main(["sweep", "--family", "suq2", "--j", "5", "--param", "q:1.0001:3:21"])
        assert type(info.value) is ArithmeticError
        assert str(info.value) == "SU_q(2) casimir identity violated"
        assert capsys.readouterr().out == ""

    def test_a_frame_runs_its_points_as_one_batch(self, capsys, monkeypatch):
        # every product of a single-frame sweep acts on all its points at once
        calls = []
        product = operators._product

        def counted(a, b):
            calls.append(1)
            return product(a, b)

        monkeypatch.setattr(operators, "_product", counted)
        counts = []
        for count in (2, 101):
            calls.clear()
            argv = ["sweep", "--family", "suq2", "--j", "5/2", "--param", f"q:1.0001:3:{count}"]
            assert main(argv) == 0
            counts.append(len(calls))
        capsys.readouterr()
        assert counts[0] == counts[1] > 0

    def test_a_sweep_leaves_no_reference_cycles(self, capsys):
        # what a sweep keeps (reports, stored errors, frames) is freed when it
        # returns or raises, not left to the cyclic collector
        def sweep(*grid):
            try:
                main(["sweep", "--family", "suq2", *grid])
            except ArithmeticError:  # q > ~2.58 at j = 5 (test above)
                pass

        for grid in (["--j", "5/2", "--param", "q:1.0001:3:7"],
                     ["--j", "5", "--param", "q:1.0001:3:21"]):
            sweep(*grid)
            gc.collect()
            gc.disable()
            try:
                sweep(*grid)
                assert gc.collect() == 0
            finally:
                gc.enable()
        capsys.readouterr()

    def test_no_frame_outlives_its_request(self, monkeypatch):
        built = []

        def spy(*key):
            built.append(key)
            return spin_frame(*key)

        monkeypatch.setattr(verify, "spin_frame", spy)  # a sweep's frames, one per batch
        grids = ["q:1.1:2:3", "muB:0.5:1:2"]
        rows = {}
        for theta0 in (0.3, 1.3):
            base = {"family": "suq2", "j": "3/2", "theta0": theta0}
            rows[theta0] = _sweep_rows(base, grids)
            assert rows[theta0] == _verify_rows(base, grids)
        assert rows[0.3] != rows[1.3]  # theta0 reaches the residuals
        assert len(built) == 4  # two muB values per sweep, one frame each
        _sweep_rows({"family": "suq2", "j": "3/2", "theta0": 1.3}, grids)
        assert built[4:] == built[2:4]  # the identical sweep builds its frames again


# per spin family: its deformation parameter (base) and grids that the
# property below draws one or two of; some cross an error edge (witten's
# r = 1, f_deform's vanishing weight, hermitian_f's negative norm at p = 3,
# suq2's overflow) and the rest cross the frame's fields
_PROPERTY_GRIDS = {
    "su2": ({}, ["muB:-1:1:3", "theta0:0.3:1.3:2"]),
    "suq2": ({"q": 1.3}, ["q:0.5:2:3", "q:1.3:1e300:3", "theta0:0.3:1.3:2", "muB:-1:1:2"]),
    "witten": ({"r": 1.2}, ["r:0.5:1.5:3", "r:1.1:2:2", "muB:-1:1:2"]),
    "ab_map": ({"q": 1.3}, ["q:0.5:2.5:3", "theta0:0.3:1.3:2"]),
    "f_deform": ({}, ["f_coeff:-1:1:5", "f_coeff:0:0.2:2", "theta0:0.3:1.3:2"]),
    "hermitian_f": ({"q": 1.3}, ["q_phase:3:7:3", "q:1.1:1.5:2", "muB:0.5:1.5:2"]),
}


@st.composite
def _sweeps(draw):
    family = draw(st.sampled_from(sorted(_PROPERTY_GRIDS)))
    base, grids = _PROPERTY_GRIDS[family]
    first = draw(st.sampled_from(grids))
    name = first.split(":")[0]
    taken = {"q", "q_phase"} if name in ("q", "q_phase") else {name}  # q_phase replaces q
    others = [g for g in grids if g.split(":")[0] not in taken]
    drawn = [first] + ([draw(st.sampled_from(others))] if others and draw(st.booleans()) else [])
    j = draw(st.sampled_from(["1/2", "1", "3/2", "5/2"]))
    return {"family": family, "j": j, **base}, drawn


@settings(max_examples=30, deadline=None)
@given(_sweeps())
def test_a_sweep_row_is_its_points_lone_verify(sweep):
    base, grids = sweep
    assert _sweep_rows(base, grids) == _verify_rows(base, grids)


class TestSummaryCells:
    """A sweep row's cells are read from the report's columns: each point's
    are Python's max and min over that point's floats, in report order."""

    @staticmethod
    def _python_cells(report: CheckReport, point: int) -> list[str]:
        def at(value):  # a point's entry of a column, or a frame's shared value
            return value[point] if isinstance(value, (list, np.ndarray)) else value

        cells = []
        for cat in _CATEGORIES:
            members = [float(at(c.residual)) for c in report
                       if c.category == cat and c.mode == "le"]
            cells.append(format_float(max(members) if members else float("nan")))
        controls = [float(at(c.residual)) for c in report if c.mode == "ge"]
        cells.append(format_float(min(controls) if controls else float("nan")))
        passed = all(at(c.passed) for c in report)
        return cells + ["true" if passed else "false", ""]

    def test_rows_fold_as_python_max_and_min(self):
        nan, inf = float("nan"), float("inf")
        report = CheckReport()
        report.add("frame", 0.5, 1.0, category="phase")  # one value that every point shares
        report.add("first", np.array([nan, 1.0, inf, -0.0, 0.25, 3.0]), 2.0)
        report.add("middle", np.array([2.0, nan, -inf, 0.0, 0.5, 1.0]), 2.0)
        report.add("last", np.array([1.0, 0.5, 3.0, 0.0, nan, inf]), np.full(6, 4.0))
        report.add("phase_row", np.array([0.1, 0.7, nan, 0.2, -inf, 2.0]), 1.0, category="phase")
        report.add("shared_control", 5.0, 1.0, mode="ge")
        report.add("control", np.array([inf, nan, 0.5, 7.0, -inf, 6.0]), 1.0, mode="ge")
        report.add("late_control", np.array([1.0, 2.0, nan, 9.0, 3.0, 5.5]), 1.0, mode="ge")
        rows = _summary_cells(report, 6)
        assert rows == [self._python_cells(report, i) for i in range(6)]
        assert [row[-2] for row in rows] == ["false", "false", "false", "true", "false", "false"]
        # a NaN or a -0.0 that comes first stays; a later NaN loses
        assert rows[0][0] == "NaN" and rows[1][0] == "1" and rows[3][0] == "-0"
        assert rows[0][3] == "NaN"  # no derivation check: NaN

    def test_a_batch_report_fails_where_any_point_fails(self):
        report = CheckReport()
        report.add("frame", 0.5, 1.0)
        report.add("rows", np.array([0.5, 2.0]), 1.0)
        assert not report.all_pass and [c.name for c in report.failures()] == ["rows"]
        assert [row[-2] for row in _summary_cells(report, 2)] == ["true", "false"]
        report.checks.pop()
        report.add("rows", np.array([0.5, 0.25]), 1.0)
        assert report.all_pass and not report.failures()

    def test_a_lone_report_gives_one_row(self):
        report = CheckReport()
        report.add("a", float("nan"), 1.0)
        report.add("b", 0.5, 1.0)
        report.add("c", 0.25, 1.0, category="dynamics")
        report.add("control", 3.0, 1.0, mode="ge")
        assert _summary_cells(report) == [self._python_cells(report, 0)]
        assert _summary_cells(report)[0][-2] == "false"


class TestScenarioFile:
    def test_flags_override_file(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"family": "suq2", "j": "1", "q": 2.0}))
        report = tmp_path / "report.json"
        rc = main(
            ["verify", "--scenario", str(scenario), "--q", "1.3", "--report", str(report)]
        )
        capsys.readouterr()
        assert rc == 0
        assert read_json(report)["scenario"]["q"] == 1.3

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["verify", "--scenario", "/nonexistent.json"]) == 2
        capsys.readouterr()

    def test_file_only_keys_apply(self, tmp_path, capsys):
        # split has no flag of its own; it comes from the scenario file
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"family": "ab_map", "j": "1", "q": 1.3, "split": "left"}))
        report = tmp_path / "report.json"
        rc = main(["verify", "--scenario", str(scenario), "--report", str(report)])
        capsys.readouterr()
        assert rc == 0
        assert read_json(report)["scenario"]["split"] == "left"

    def test_tol_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SPINPHASE_TOL", "1e-9")
        report = tmp_path / "report.json"
        rc = main(["verify", "--family", "su2", "--j", "1", "--report", str(report)])
        capsys.readouterr()
        assert rc == 0
        assert read_json(report)["scenario"]["tol"] == 1e-9

    def test_bad_tol_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("SPINPHASE_TOL", "not-a-number")
        assert main(["verify", "--family", "su2", "--j", "1"]) == 2
        capsys.readouterr()


# one small scenario per family and the scenario keys its report lists, in order
_FAMILY_CASES = {
    "su2": (["--j", "1"], ["j", "theta0", "muB"]),
    "suq2": (["--j", "1", "--q", "1.3"], ["j", "q", "theta0", "muB"]),
    "witten": (["--j", "1", "--r", "1.2"], ["j", "r", "theta0", "muB"]),
    "ab_map": (["--j", "1", "--q", "1.3"], ["j", "q", "theta0", "muB", "split"]),
    "f_deform": (["--j", "1"], ["j", "theta0", "muB", "f_coeff"]),
    "hermitian_f": (["--j", "1", "--q", "1.3"], ["j", "q", "theta0", "muB"]),
    "oscillator": (["--s", "2"], ["s", "phi0", "omega"]),
    "q_oscillator": (["--s", "2"], ["s", "phi0", "omega"]),
    "jordan_schwinger": (["--s", "2"], ["s", "phi0", "omega1", "omega2", "muB"]),
}

# a two-point grid for every sweepable name
_SWEEP_GRIDS = {
    "j": "1:2:2",
    "s": "2:3:2",
    "q": "1.1:1.2:2",
    "q_phase": "7:8:2",
    "r": "1.1:1.2:2",
    "theta0": "0:1:2",
    "phi0": "0:1:2",
    "muB": "1:2:2",
    "omega": "1:2:2",
    "omega1": "1:2:2",
    "omega2": "2:3:2",
    "f_coeff": "0.1:0.2:2",
}


class TestFamilyParameters:
    """Which parameters a family reads decides its report and its sweeps."""

    @pytest.mark.parametrize(
        "flags, keys",
        [
            (["--family", family, *flags], ["family", *keys, "tol"])
            for family, (flags, keys) in _FAMILY_CASES.items()
        ]
        + [
            (
                ["--family", "hermitian_f", "--j", "1", "--q-phase", "7"],
                ["family", "j", "q_phase", "theta0", "muB", "tol"],
            )
        ],
        ids=[*_FAMILY_CASES, "hermitian_f-q_phase"],
    )
    def test_report_scenario_key_order(self, tmp_path, capsys, flags, keys):
        report = tmp_path / "report.json"
        assert main(["verify", *flags, "--report", str(report)]) == 0
        capsys.readouterr()
        assert list(read_json(report)["scenario"]) == keys

    @pytest.mark.parametrize("family", list(_FAMILY_CASES))
    @pytest.mark.parametrize("name", list(_SWEEP_GRIDS))
    def test_sweep_accepts_exactly_the_read_parameters(self, capsys, family, name):
        flags, keys = _FAMILY_CASES[family]
        if family == "hermitian_f":
            keys = keys + ["q_phase"]
        rc = main(["sweep", "--family", family, *flags, "--param", f"{name}:{_SWEEP_GRIDS[name]}"])
        err = capsys.readouterr().err
        if name in keys:
            assert rc in (0, 1)
            assert err == ""
        else:
            assert rc == 2
            assert err == f"spinphase sweep: family {family} does not use parameter {name!r}\n"

    @pytest.mark.parametrize("name", ["zz", "family", "split", "tol"])
    def test_unsweepable_name_message(self, capsys, name):
        rc = main(["sweep", "--family", "suq2", "--j", "1", "--param", f"{name}:0:1:3"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"spinphase sweep: cannot sweep {name!r}; choose from "
            "j, s, q, q_phase, r, theta0, phi0, muB, omega, omega1, omega2, f_coeff\n"
        )

    @pytest.mark.parametrize(
        "flags, stray",
        [
            (["--family", "su2", "--j", "1"], ["--q", "2", "--q-phase", "5", "--r", "3"]),
            (["--family", "suq2", "--j", "1", "--q", "1.3"], ["--q-phase", "5", "--r", "3"]),
            (["--family", "witten", "--j", "1", "--r", "1.2"], ["--q", "2", "--q-phase", "5"]),
            (["--family", "ab_map", "--j", "1", "--q", "1.3"], ["--q-phase", "5", "--r", "3"]),
            (["--family", "f_deform", "--j", "1"], ["--q", "2", "--q-phase", "5", "--r", "3"]),
            (["--family", "hermitian_f", "--j", "1", "--q", "1.3"], ["--r", "3"]),
            # a phase-valued q replaces the real one
            (["--family", "hermitian_f", "--j", "1", "--q-phase", "7"], ["--q", "1.3", "--r", "3"]),
            (["--family", "oscillator", "--s", "2"], ["--q", "2", "--q-phase", "5", "--r", "3"]),
            (["--family", "q_oscillator", "--s", "2"], ["--q", "2", "--q-phase", "5", "--r", "3"]),
            (["--family", "jordan_schwinger", "--s", "2"], ["--q", "2", "--q-phase", "5", "--r", "3"]),
        ],
        ids=lambda v: " ".join(v),
    )
    def test_stray_deformation_flags_are_ignored(self, tmp_path, capsys, flags, stray):
        plain, with_stray = tmp_path / "plain.json", tmp_path / "stray.json"
        assert main(["verify", *flags, "--report", str(plain)]) == 0
        plain_out = capsys.readouterr()
        assert main(["verify", *flags, *stray, "--report", str(with_stray)]) == 0
        assert capsys.readouterr() == plain_out
        assert with_stray.read_bytes() == plain.read_bytes()


# inputs that must be usage errors (exit 2, one line on stderr): values that
# are no number, and numbers that are not finite
_REJECTED_FILES = [
    ("verify", '{"family": "su2", "j": "1", "theta0": "x"}'),
    ("verify", '{"family": "su2", "j": "1", "tol": "abc"}'),
    ("verify", '{"family": "oscillator", "s": 3, "omega": "fast"}'),
    ("verify", '{"family": "su2", "j": [1]}'),
    ("verify", '{"family": "su2", "j": Infinity}'),
    ("verify", '{"family": "oscillator", "s": 1e400}'),
    ("verify", '{"family": "su2", "j": "1", "tol": Infinity}'),
    # an integral s, 1 and 400 zeros, whose dimension no float holds
    *(pytest.param(command, '{"family": "oscillator", "s": 1' + "0" * 400 + "}",
                   id=f"{command}-integral-s-of-401-digits") for command in ("verify", "build")),
    ("sweep", '{"family": ["su2"]}'),
]

_REJECTED_FLAGS = [
    ["verify", "--family", "su2", "--j", "1", "--tol", "inf"],
    ["verify", "--family", "su2", "--j", "1", "--tol", "nan"],
    ["verify", "--family", "su2", "--j", "1", "--theta0", "nan"],
    ["verify", "--family", "su2", "--j", "1", "--muB", "nan"],
    ["verify", "--family", "hermitian_f", "--j", "1", "--q-phase", "inf"],
    ["sweep", "--family", "su2", "--j", "1", "--param", "theta0:0:nan:3"],
    ["sweep", "--family", "oscillator", "--param", "s:1:inf:3"],
    # an exact spin whose dimension no float holds
    ["verify", "--family", "su2", "--j", "1e400"],
    ["build", "--family", "su2", "--j", "1e400"],
    ["sweep", "--family", "su2", "--j", "1e400", "--param", "muB:0:1:2"],
]


_OUTPUT_FLAGS = [
    ["verify", "--family", "su2", "--j", "1", "--report"],
    ["build", "--family", "su2", "--j", "1", "--out"],
    ["evolve", "--family", "su2", "--j", "1", "--t-max", "1", "--steps", "3", "--out"],
    ["sweep", "--family", "su2", "--j", "1", "--param", "muB:0:1:2", "--out"],
]


# usage errors, each with the one stderr line it prints: ``{tmp}`` is the
# test's temporary directory, holding split.json ({"family": "ab_map", ...,
# "split": "diagonal"}) and list.json ([1, 2])
_USAGE_ERRORS = [
    (["verify", "--family", "su2"], "family su2 requires --j"),
    (["verify", "--family", "oscillator"], "family oscillator requires --s"),
    (["verify", "--family", "oscillator", "--s", "0"], "s must be >= 1, got 0"),
    (["verify", "--family", "hermitian_f", "--j", "1", "--q-phase", "2"],
     "--q-phase is the root order p in q = exp(i*2*pi/p); need p > 2, got 2.0"),
    (["verify", "--scenario", "{tmp}/split.json"],
     "split must be 'left' or 'symmetric', got 'diagonal'"),
    (["verify", "--scenario", "{tmp}/list.json"], "scenario file must hold a JSON object"),
    (["sweep", "--family", "su2", "--param", "j:1:2:2", "--param", "muB:1:2:2",
      "--param", "theta0:0:1:2"], "at most two swept parameters are supported"),
    (["sweep", "--family", "suq2", "--j", "1", "--param", "q:1:2"],
     "--param expects name:start:stop:count, got 'q:1:2'"),
    (["sweep", "--family", "suq2", "--j", "1", "--param", "q:a:2:3"],
     "bad sweep grid in 'q:a:2:3'"),
    (["sweep", "--family", "suq2", "--j", "1", "--param", "q:1:2:1"],
     "sweep count must be >= 2, got 1"),
    (["sweep", "--family", "oscillator", "--param", "s:1:2:3"],
     "swept s values must be positive integers, got 1.5"),
    (["build", "--family", "su2", "--j", "1", "--out", "{tmp}/" + "a" * 300 + ".json"],
     "cannot write {tmp}/" + "a" * 300 + ".json: File name too long"),
]


class TestRejectedInput:
    @staticmethod
    def _assert_usage_error(rc, captured, command):
        assert rc == 2
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.startswith(f"spinphase {command}: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command, text", _REJECTED_FILES)
    def test_bad_scenario_file_value(self, tmp_path, capsys, command, text):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(text)
        argv = [command, "--scenario", str(scenario)]
        if command == "sweep":
            argv += ["--param", "j:1:2:3"]
        self._assert_usage_error(main(argv), capsys.readouterr(), command)

    @pytest.mark.parametrize("argv", _REJECTED_FLAGS, ids=" ".join)
    def test_non_finite_flag(self, capsys, argv):
        rc = main(argv)
        captured = capsys.readouterr()
        self._assert_usage_error(rc, captured, argv[0])
        assert "finite" in captured.err

    @pytest.mark.parametrize(
        "family, message",
        [
            ("suq2", "suq2 requires real q > 0, got None"),
            ("ab_map", "ab_map requires real q > 0, got None"),
            ("hermitian_f", "hermitian_f requires --q > 0 or --q-phase, got q=None"),
        ],
    )
    @pytest.mark.parametrize("command", ["verify", "build", "sweep"])
    def test_missing_q(self, capsys, family, message, command):
        # no q means no deformation was chosen: no default stands in for it
        argv = [command, "--family", family]
        argv += ["--param", "j:0.5:2:4"] if command == "sweep" else ["--j", "1"]
        rc = main(argv)
        captured = capsys.readouterr()
        self._assert_usage_error(rc, captured, command)
        assert captured.err == f"spinphase {command}: {message}\n"

    @pytest.mark.parametrize("command", ["verify", "build"])
    def test_non_integral_s_in_file(self, tmp_path, capsys, command):
        scenario = tmp_path / "scenario.json"
        scenario.write_text('{"family": "oscillator", "s": 3.7}')
        rc = main([command, "--scenario", str(scenario)])
        captured = capsys.readouterr()
        self._assert_usage_error(rc, captured, command)
        assert captured.err == f"spinphase {command}: --s expects an integer, got 3.7\n"

    @pytest.mark.parametrize("command", ["verify", "build"])
    def test_integral_float_s_in_file(self, tmp_path, capsys, command):
        scenario = tmp_path / "scenario.json"
        scenario.write_text('{"family": "oscillator", "s": 3.0}')
        rc = main([command, "--scenario", str(scenario)])
        from_file = capsys.readouterr()
        assert rc == main([command, "--family", "oscillator", "--s", "3"]) == 0
        assert capsys.readouterr() == from_file

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"family": "su2", "j": "1/2", "thta0": 1}', "unknown scenario key 'thta0'"),
            ('{"family": "su2", "j": "1/2", "q-phase": 5}', "unknown scenario key 'q-phase'"),
            ('{"family": "oscillator", "s": true}', "s expects a number, got True"),
            ('{"family": "su2", "j": true}', "j expects a number, got True"),
            ('{"family": "su2", "j": "1", "muB": false}', "muB expects a number, got False"),
            ('{"family": "suq2", "j": "1", "q": true}', "q expects a number, got True"),
            ('{"family": "su2", "j": "1", "tol": true}', "tol expects a number, got True"),
        ],
    )
    @pytest.mark.parametrize("command", ["verify", "build"])
    def test_scenario_file_key_and_boolean(self, tmp_path, capsys, text, message, command):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(text)
        rc = main([command, "--scenario", str(scenario)])
        captured = capsys.readouterr()
        self._assert_usage_error(rc, captured, command)
        assert captured.err.startswith(f"spinphase {command}: {message}")

    def test_scenario_file_keeps_other_families_fields(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        fields = {"family": "su2", "j": "1", "r": 3, "s": 4, "omega": 2, "split": "left"}
        scenario.write_text(json.dumps(fields))
        rc = main(["verify", "--scenario", str(scenario)])
        from_file = capsys.readouterr()
        assert rc == main(["verify", "--family", "su2", "--j", "1"]) == 0
        assert capsys.readouterr() == from_file

    @pytest.mark.parametrize("argv", _OUTPUT_FLAGS, ids=lambda argv: argv[0])
    @pytest.mark.parametrize("where", ["missing/x.json", "."])
    def test_unwritable_output_path(self, tmp_path, capsys, argv, where):
        path = str(tmp_path / where)
        rc = main([*argv, path])
        captured = capsys.readouterr()
        reason = "No such file or directory" if where != "." else "Is a directory"
        assert rc == 2
        assert "Traceback" not in captured.err
        assert captured.err == f"spinphase {argv[0]}: cannot write {path}: {reason}\n"
        assert not (tmp_path / "missing").exists()

    def _assert_refused_before_any_work(self, capsys, monkeypatch, argv, path, reason):
        def work(*args, **kwargs):
            raise AssertionError("the request did its work before checking its output path")

        monkeypatch.setattr(cli, "resolve_scenario", work)
        monkeypatch.setattr(cli, "verify_points", work)
        rc = main([*argv, path])
        captured = capsys.readouterr()
        self._assert_usage_error(rc, captured, argv[0])
        assert captured.err == f"spinphase {argv[0]}: cannot write {path}: {reason}\n"

    @pytest.mark.parametrize("argv", _OUTPUT_FLAGS, ids=lambda argv: argv[0])
    def test_missing_output_directory_is_refused_before_any_work(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        path = str(tmp_path / "missing" / "x.json")
        self._assert_refused_before_any_work(
            capsys, monkeypatch, argv, path, "No such file or directory"
        )

    @pytest.mark.parametrize("argv", _OUTPUT_FLAGS, ids=lambda argv: argv[0])
    def test_existing_directory_is_refused_before_any_work(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        self._assert_refused_before_any_work(
            capsys, monkeypatch, argv, str(tmp_path), "Is a directory"
        )

    @pytest.mark.parametrize(
        "argv, message", _USAGE_ERRORS,
        ids=lambda v: " ".join(v)[:60] if isinstance(v, list) else None,
    )
    def test_usage_error_message(self, tmp_path, capsys, argv, message):
        (tmp_path / "split.json").write_text(
            '{"family": "ab_map", "j": "1", "q": 1.3, "split": "diagonal"}')
        (tmp_path / "list.json").write_text("[1, 2]")
        rc = main([arg.format(tmp=tmp_path) for arg in argv])
        captured = capsys.readouterr()
        self._assert_usage_error(rc, captured, argv[0])
        assert captured.err == f"spinphase {argv[0]}: {message.format(tmp=tmp_path)}\n"

    def test_negative_tol_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("SPINPHASE_TOL", "-1")
        rc = main(["verify", "--family", "su2", "--j", "1"])
        captured = capsys.readouterr()
        self._assert_usage_error(rc, captured, "verify")
        assert captured.err == "spinphase verify: SPINPHASE_TOL must be nonnegative, got -1.0\n"

    @pytest.mark.parametrize("argv", _OUTPUT_FLAGS, ids=lambda argv: argv[0])
    def test_output_under_a_file_is_refused_before_any_work(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        (tmp_path / "afile").write_text("")
        path = str(tmp_path / "afile" / "x.json")
        self._assert_refused_before_any_work(capsys, monkeypatch, argv, path, "Not a directory")

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--family", "witten", "--j", "50", "--r", "1e10"],
             "r=10000000000.0 overflows Witten's map at j=50"),
            (["--family", "witten", "--j", "3/2", "--r", "1e-300"],
             "r=1e-300 overflows Witten's map at j=3/2"),
            (["--family", "suq2", "--j", "3/2", "--q", "1e300"],
             "the suq2 ladder is not finite at m=-1.5 -> m+1"),
            (["--family", "hermitian_f", "--j", "3/2", "--q", "1e300"],
             "the hermitian_f ladder is not finite at m=-1.5 -> m+1"),
            (["--family", "suq2", "--j", "1/2", "--q", "1e300"],
             "q=1e+300 overflows SU_q(2)'s casimir at j=1/2"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else None,
    )
    @pytest.mark.parametrize("command", ["verify", "build"])
    def test_overflowing_parameter(self, capsys, flags, message, command):
        # no traceback and no RuntimeWarning: the builder rejects the parameter
        rc = main([command, *flags])
        captured = capsys.readouterr()
        self._assert_usage_error(rc, captured, command)
        assert captured.err == f"spinphase {command}: {message}\n"

    def test_non_finite_tol_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("SPINPHASE_TOL", "inf")
        rc = main(["verify", "--family", "su2", "--j", "1"])
        captured = capsys.readouterr()
        self._assert_usage_error(rc, captured, "verify")
        assert captured.err == "spinphase verify: SPINPHASE_TOL must be finite, got inf\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--family", "su2", "--j", "50", "--muB", "1e307"], "--muB=1e+307"),
            (["--family", "oscillator", "--s", "2", "--omega", "1e308"], "--omega=1e+308"),
            (["--family", "jordan_schwinger", "--s", "2", "--omega1=1e308", "--omega2=-1e308"],
             "--omega1=1e+308, --omega2=-1e+308"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else None,
    )
    @pytest.mark.parametrize("command", ["verify", "build"])
    def test_overflowing_hamiltonian_names_its_flag(self, capsys, flags, message, command):
        # no numpy warning (an error under pytest) and not "must be hermitian"
        rc = main([command, *flags])
        captured = capsys.readouterr()
        self._assert_usage_error(rc, captured, command)
        assert captured.err == (
            f"spinphase {command}: the hamiltonian's energies are not finite at {message}\n"
        )

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--family", "su2", "--j", "1/2", "--theta0", "1e308"],
             "--theta0=1e+308 makes the corner phase exp(i*2*theta0) not finite"),
            (["--family", "oscillator", "--s", "2", "--phi0=-1e308"],
             "--phi0=-1e+308 makes the corner phase exp(i*3*phi0) not finite"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else None,
    )
    @pytest.mark.parametrize("command", ["build", "verify", "evolve"])
    def test_overflowing_corner_phase(self, capsys, flags, message, command):
        # a finite angle whose corner phase exp(i*dim*angle) is not finite
        extra = ["--t-max", "1", "--steps", "3"] if command == "evolve" else []
        rc = main([command, *flags, *extra])
        captured = capsys.readouterr()
        self._assert_usage_error(rc, captured, command)
        assert captured.err == f"spinphase {command}: {message}\n"

    @pytest.mark.parametrize("env", [False, True])
    def test_tolerance_overflowing_with_the_dimension(self, capsys, monkeypatch, env):
        # a finite --tol whose tol * dim is inf would pass every check
        argv = ["verify", "--family", "su2", "--j", "1/2"]
        if env:
            monkeypatch.setenv("SPINPHASE_TOL", "1e308")
        rc = main(argv if env else [*argv, "--tol", "1e308"])
        captured = capsys.readouterr()
        self._assert_usage_error(rc, captured, "verify")
        assert captured.err == (
            "spinphase verify: --tol 1e+308 times the dimension 2 is not finite\n"
        )


class TestNoCheckSuiteRaises:
    """A scenario whose own build passes ends in a report, never a traceback."""

    @pytest.mark.parametrize(
        "scenario, flags",
        [
            (None, ["--family", "hermitian_f", "--j", "5", "--q", "3"]),
            (None, ["--family", "hermitian_f", "--j", "15/2", "--q", "2"]),
            (None, ["--family", "hermitian_f", "--j", "35/2", "--q", "1.3"]),
            ({"family": "ab_map", "split": "left"}, ["--j", "15/2", "--q", "2"]),
            # the casimir suite at zero tolerance: failed checks, not a traceback
            (None, ["--family", "su2", "--j", "1", "--tol", "0"]),
            (None, ["--family", "su2", "--j", "5", "--theta0", "0.3", "--tol", "0"]),
        ],
    )
    def test_verify_writes_its_report(self, tmp_path, capsys, scenario, flags):
        if scenario is not None:
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps(scenario))
            flags = ["--scenario", str(path), *flags]
        report = tmp_path / "report.json"
        rc = main(["verify", *flags, "--report", str(report)])
        out = capsys.readouterr().out
        assert rc in (0, 1)
        payload = read_json(report)
        assert payload["all_pass"] is (rc == 0)
        assert out.splitlines()[-1].endswith(f"/{len(payload['checks'])} checks passed")

    def test_alternate_split_failure_is_a_failed_check(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"family": "ab_map", "split": "left"}))
        report = tmp_path / "report.json"
        main(["verify", "--scenario", str(scenario), "--j", "15/2", "--q", "2",
              "--report", str(report)])
        capsys.readouterr()
        alt = [c for c in read_json(report)["checks"] if c["name"] == "alternate_split_structure"]
        assert alt[0]["pass"] is False
        assert "split map violates its structure relation" in alt[0]["detail"]

    def test_sweep_writes_every_row(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--family", "hermitian_f", "--j", "5", "--param", "q:1.5:3:4",
                   "--out", str(out)])
        capsys.readouterr()
        assert rc in (0, 1)
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 4
        assert all(row.endswith(",") for row in rows)  # no error column: every point ran


def test_parser_is_built_once(monkeypatch, capsys):
    parsers = []
    original = argparse.ArgumentParser.parse_args

    def record(self, *args, **kwargs):
        parsers.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", record)
    assert main(["verify", "--family", "su2", "--j", "1/2"]) == 0
    assert main(["verify", "--family", "su2", "--j", "1"]) == 0
    capsys.readouterr()
    assert len(parsers) == 2 and parsers[0] is parsers[1]


class TestConsoleScript:
    def test_module_entry_point(self):
        # the child imports the same spinphase as this process, installed or not
        package_root = os.path.dirname(os.path.dirname(spinphase.__file__))
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "spinphase.cli", "verify", "--family", "su2", "--j", "1/2"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "checks passed" in proc.stdout
