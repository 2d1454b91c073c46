"""CLI contract: exit codes, file outputs, and byte-identical reruns."""

import argparse
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import spinphase
from spinphase import operators
from spinphase.cli import main
from spinphase.serialize import operator_from_jsonable


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
        jp = operator_from_jsonable(payload["operators"]["Jp"])
        assert np.allclose(jp.mat, [[0, 0], [1, 0]])
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

    def test_non_finite_tol_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("SPINPHASE_TOL", "inf")
        rc = main(["verify", "--family", "su2", "--j", "1"])
        captured = capsys.readouterr()
        self._assert_usage_error(rc, captured, "verify")
        assert captured.err == "spinphase verify: SPINPHASE_TOL must be finite, got inf\n"


class TestNoCheckSuiteRaises:
    """A scenario whose own build passes ends in a report, never a traceback."""

    @pytest.mark.parametrize(
        "scenario, flags",
        [
            (None, ["--family", "hermitian_f", "--j", "5", "--q", "3"]),
            (None, ["--family", "hermitian_f", "--j", "15/2", "--q", "2"]),
            (None, ["--family", "hermitian_f", "--j", "35/2", "--q", "1.3"]),
            ({"family": "ab_map", "split": "left"}, ["--j", "15/2", "--q", "2"]),
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
