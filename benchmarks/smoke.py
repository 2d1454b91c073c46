"""Smoke test of the benchmark itself.

Runs every workload once at minimum length (``--seconds 1``): untraced once
and traced twice with different seeds.  Asserts that the last stdout line
holds exactly ``correct``, ``attempted``, ``failed`` and ``metrics``, that
the run is correct, that every metric BENCHMARK.json names is emitted with
its unit (``end_to_end`` untraced, ``per_layer`` traced) and no other, that
the per-cycle counts (calls and computed kernel work) repeat exactly
between the two traced runs, and that requests fail where the seed program
raises (``FAILS``) and nowhere else.

Usage, from the root of a source checkout::

    python3 benchmarks/smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# per-cycle counts that depend only on the request set, not on the seed's
# draws (output bytes do: the drawn angles are printed)
EXACT_UNITS = {"count", "GFLOP", "MB"}
# whether the workload holds requests on which the program raises: the seed's
# suq2 / ab_map / hermitian_f at j=50 and the suq2 j=5 sweep past q ~ 2.58
FAILS = {"mixed": True, "verify-twomode": False}


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(result: dict, expected: list[dict], label: str) -> list[str]:
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append(f"{label}: correct is {result.get('correct')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{label}: attempted is {result.get('attempted')}")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in expected}
    if set(metrics) != set(want):
        errors.append(f"{label}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(want) - set(metrics))}, extra {sorted(set(metrics) - set(want))}")
    for name, unit in want.items():
        m = metrics.get(name)
        if m is not None and (m.get("unit") != unit or not isinstance(m.get("value"), (int, float))):
            errors.append(f"{label}: {name} is {m}, want a number in {unit}")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        untraced = run(workload, 1, 0)
        errors += check(untraced, spec["end_to_end"], f"{workload} untraced")
        if (untraced["failed"] > 0) != FAILS[workload]:
            errors.append(f"{workload}: {untraced['failed']} failed requests, "
                          f"want {'some' if FAILS[workload] else 'none'}")
        first, second = run(workload, 1, 1), run(workload, 2, 1)
        errors += check(first, spec["per_layer"], f"{workload} traced")
        for m in spec["per_layer"]:
            if m["unit"] in EXACT_UNITS:
                a = first["metrics"].get(m["name"], {}).get("value")
                b = second["metrics"].get(m["name"], {}).get("value")
                if a != b:
                    errors.append(f"{workload}: {m['name']} is {a} with seed 1 but {b} with seed 2")
        print(f"{workload}: checked", flush=True)
    for e in errors:
        print("FAIL", e)
    print("smoke test", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
