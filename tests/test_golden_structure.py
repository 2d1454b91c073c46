"""Structural golden test: what each family checks, in which order, and what
`build` emits, pinned as literals for all nine families.

``data/structure_golden.json`` holds, per scenario, the ordered checks of
``run_verify`` as [name, category, mode, verdict, detail] (detail null where
the text holds computed numbers) and, for ``build``, the operator names, the
metadata keys and the provenance.  No residual digits are pinned: they follow
the BLAS build, the structure does not.
"""

import json
import math
import pathlib

import pytest

from spinphase.cli import main
from spinphase.scenarios import FAMILIES, resolve_scenario
from spinphase.verify import run_verify

GOLDEN = json.loads((pathlib.Path(__file__).parent / "data" / "structure_golden.json").read_text())


def _rounded(obj):
    """obj with every float rounded to 12 significant digits (libm last bits)."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}") if math.isfinite(obj) else obj
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_rounded(v) for v in obj]
    return obj


@pytest.mark.parametrize("key", list(GOLDEN))
def test_verify_check_structure(key):
    case = GOLDEN[key]
    report, _ = run_verify(resolve_scenario(case["scenario"]))
    got = [
        [c.name, c.category, c.mode, c.passed, None if detail is None else c.detail]
        for c, (*_, detail) in zip(report, case["checks"])
    ]
    assert len(report) == len(case["checks"])
    assert got == case["checks"]


@pytest.mark.parametrize("key", list(GOLDEN))
def test_build_payload_structure(key, tmp_path, capsys):
    case = GOLDEN[key]
    scenario, out = tmp_path / "scenario.json", tmp_path / "build.json"
    scenario.write_text(json.dumps(case["scenario"]))
    assert main(["build", "--scenario", str(scenario), "--out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert list(payload["operators"]) == case["operators"]
    assert list(payload["metadata"]) == case["metadata"]
    assert _rounded(payload["provenance"]) == _rounded(case["provenance"])


def test_golden_covers_every_family():
    assert {case["scenario"]["family"] for case in GOLDEN.values()} == set(FAMILIES)
