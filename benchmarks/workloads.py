"""The benchmark's workloads: seeded CLI argv lists and their output checks.

Each workload is a fixed set of CLI requests (one *cycle*).  The seed fixes
the order of the requests in every cycle and the continuous draws baked
into the argv (``--theta0`` / ``--phi0``, each uniform in [0, 2*pi)); the
program sees only the argv and the scenario file written next to it.

Why these sets: ``verify-twomode`` is the dense-kernel path; ``mixed``
bypasses it.  A ``mixed`` cycle sends the requests of three parts, shuffled
together.  The parts share one workload because the harness's time budget
leaves no room for four workloads with runs long enough to average out the
machine's changes of speed.

* ``verify-small`` part: the six spin families at j in {1/2, 5/2, 25/2, 50},
  ``oscillator`` / ``q_oscillator`` at s in {3, 12, 30}, and the
  ``hermitian_f --q-phase 3`` negative-norm point.  Dimensions <= 101, so
  builders, check suites and report/serialize overhead dominate.  It keeps
  the seed's raising points (suq2 / ab_map / hermitian_f at j=50, q=1.3).
  The extra negative-norm point makes the ``mixed`` cycle 47 requests, an
  odd number, so the median falls inside one request's samples instead of
  between two.
* ``verify-twomode``: ``jordan_schwinger`` at s=30 (dim 961) once and at
  s=12 (dim 169) twice per cycle; the dense O(n^3) kernel path.  With one
  slow request in three, the tail percentile lands on the s=30 samples.
* ``sweep-grid`` part: many tiny scenarios per request; the per-point cost and
  the ``--jobs`` thread pool dominate.  Holds the suq2 j=5 q-grid that
  crosses the seed's raising points (q > ~2.58).  Its sweeps draw no angle
  (theta0 = 0): the CSV prints every point's residuals, whose digit count
  follows the angle, so drawn angles would move its output bytes by ~5%.
* ``emit`` part: ``evolve`` and ``build`` only, no check suites; CSV and JSON
  serialisation dominate.

f_deform requests use ``f_coeff = 0.01`` (through ``--scenario``, the only
way the CLI takes it) so j=50 is a valid scenario instead of a usage error.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
from dataclasses import dataclass

WORKLOADS = ("mixed", "verify-twomode")
# workloads whose request_cpu_ms_tail stands for one request: the run is not
# correct unless the tail falls inside that (slowest) request's samples
TAIL_ON_SLOWEST = ("verify-twomode",)

SPIN_FAMILIES = ("su2", "suq2", "witten", "ab_map", "f_deform", "hermitian_f")
SPIN_LADDER = ("1/2", "5/2", "25/2", "50")
EVOLVE_T_MAX = repr(2 * math.pi)


@dataclass(frozen=True)
class Request:
    """One CLI call and what its output must look like."""

    argv: tuple[str, ...]
    kind: str  # build / verify / evolve / sweep
    scenarios: int = 1  # scenarios resolved and built when it completes
    dim: int = 0  # operator dimension (build, evolve)
    steps: int = 0  # evolve samples
    params: tuple[str, ...] = ()  # swept parameter names
    jobs: int = 0  # sweep --jobs
    report: str | None = None  # verify --report path


class Generator:
    """Builds one workload's requests from a seed."""

    def __init__(self, seed: int, scratch: str) -> None:
        self.rng = random.Random(seed)
        self.report = os.path.join(scratch, "report.json")
        self.f_deform = os.path.join(scratch, "f_deform.json")

    def angle(self) -> str:
        return repr(self.rng.uniform(0.0, 2.0 * math.pi))

    def spin_flags(self, family: str, j: str) -> list[str]:
        flags = ["--family", family, "--j", j, "--theta0", self.angle()]
        if family in ("suq2", "ab_map", "hermitian_f"):
            flags += ["--q", "1.3"]
        elif family == "witten":
            flags += ["--r", "1.2"]
        elif family == "f_deform":
            flags += ["--scenario", self.f_deform]
        return flags

    def verify(self, flags: list[str]) -> Request:
        return Request(("verify", *flags, "--report", self.report), "verify", report=self.report)

    def sweep(self, flags: list[str], grids: list[tuple[str, float, float, int]], jobs: int) -> Request:
        argv = ["sweep", *flags]
        for name, start, stop, count in grids:
            argv += ["--param", f"{name}:{start}:{stop}:{count}"]
        argv += ["--jobs", str(jobs)]
        points = math.prod(g[3] for g in grids)
        return Request(
            tuple(argv), "sweep", scenarios=points, params=tuple(g[0] for g in grids), jobs=jobs
        )

    def requests(self, workload: str) -> list[Request]:
        with open(self.f_deform, "w", encoding="utf-8") as fh:
            json.dump({"f_coeff": 0.01}, fh)
        return getattr(self, "_" + workload.replace("-", "_"))()

    def _mixed(self) -> list[Request]:
        return self._verify_small() + self._sweep_grid() + self._emit()

    def _verify_small(self) -> list[Request]:
        reqs = [self.verify(self.spin_flags(f, j)) for f in SPIN_FAMILIES for j in SPIN_LADDER]
        for family in ("oscillator", "q_oscillator"):
            for s in ("3", "12", "30"):
                reqs.append(self.verify(["--family", family, "--s", s, "--phi0", self.angle()]))
        flags = ["--family", "hermitian_f", "--j", "1", "--q-phase", "3", "--theta0", self.angle()]
        reqs.append(self.verify(flags))
        return reqs

    def _verify_twomode(self) -> list[Request]:
        return [
            self.verify(["--family", "jordan_schwinger", "--s", s, "--phi0", self.angle()])
            for s in ("30", "12", "12")
        ]

    def _sweep_grid(self) -> list[Request]:
        reqs = []
        for jobs in (1, 2):
            reqs.append(self.sweep(["--family", "suq2", "--j", "5/2"], [("q", 1.0001, 3.0, 101)], jobs))
            reqs.append(self.sweep(["--family", "witten"], [("j", 0.5, 4.5, 9), ("r", 1.1, 2.0, 6)], jobs))
        reqs.append(self.sweep(["--family", "suq2", "--j", "5"], [("q", 1.0001, 3.0, 21)], 1))
        return reqs

    def _emit(self) -> list[Request]:
        reqs = [
            Request(
                ("evolve", "--family", "su2", "--j", "25", "--t-max", EVOLVE_T_MAX, "--steps", "2000"),
                "evolve", dim=51, steps=2000,
            ),
            Request(
                ("evolve", "--family", "jordan_schwinger", "--s", "12", "--phi0", self.angle(),
                 "--t-max", EVOLVE_T_MAX, "--steps", "200"),
                "evolve", dim=169, steps=200,
            ),
        ]
        for family in SPIN_FAMILIES:
            reqs.append(Request(("build", *self.spin_flags(family, "25/2")), "build", dim=26))
        for family, s, dim in (("oscillator", "30", 31), ("q_oscillator", "30", 31),
                               ("jordan_schwinger", "12", 169)):
            reqs.append(Request(
                ("build", "--family", family, "--s", s, "--phi0", self.angle()), "build", dim=dim
            ))
        return reqs

    def shuffled(self, reqs: list[Request]) -> list[Request]:
        order = list(reqs)
        self.rng.shuffle(order)
        return order


def check_output(req: Request, code: int, stdout: str, report: str | None) -> str | None:
    """Why the output of a completed request is wrong, or None."""
    if req.kind == "verify":
        lines = stdout.splitlines()
        if report is None:
            return "verify wrote no report"
        # the seed writes an infinite residual as the bare token inf, which is
        # not JSON; read it as Infinity so the verdict fields can be checked
        payload = json.loads(re.sub(r"(?<=[\[:,] )(-?)inf\b", r"\1Infinity", report))
        checks = payload["checks"]
        if payload["all_pass"] != (code == 0):
            return f"report all_pass={payload['all_pass']} but exit code {code}"
        if payload["all_pass"] != all(c["pass"] for c in checks):
            return "report all_pass disagrees with its checks"
        passed = sum(c["pass"] for c in checks)
        if not lines or lines[-1] != f"{passed}/{len(checks)} checks passed":
            return f"summary line {lines[-1:]} disagrees with the report"
        return None
    if req.kind == "evolve":
        if code != 0:
            return f"evolve exited {code}"
        rows = stdout.splitlines()
        if rows[0] != "t,row,col,re,im":
            return "evolve CSV header"
        times: list[str] = []
        elements: set[tuple[str, str]] = set()
        for row in rows[1:]:
            t, r, c, _, _ = row.split(",")
            if not times or times[-1] != t:
                times.append(t)
            elements.add((r, c))
        if len(times) != req.steps or len(rows) - 1 != req.steps * len(elements):
            return f"evolve CSV has {len(rows) - 1} rows, want {req.steps} steps x {len(elements)}"
        if float(times[-1]) != float(req.argv[req.argv.index("--t-max") + 1]):
            return "evolve time grid does not end at --t-max"
        if req.argv[2] == "su2" and len(elements) != req.dim - 1:
            return f"su2 J+ has {len(elements)} nonzero elements, want {req.dim - 1}"
        return None
    if req.kind == "sweep":
        rows = stdout.splitlines()
        if not rows or rows[0].split(",")[: len(req.params)] != list(req.params):
            return "sweep CSV header"
        if len(rows) - 1 != req.scenarios:
            return f"sweep CSV has {len(rows) - 1} rows, want {req.scenarios} grid points"
        all_pass = all(row.split(",")[-2] == "true" for row in rows[1:])
        if all_pass != (code == 0):
            return f"sweep rows all_pass={all_pass} but exit code {code}"
        return None
    if code != 0:  # build
        return f"build exited {code}"
    payload = json.loads(stdout)
    for name, op in payload["operators"].items():
        if op["dim"] != req.dim or len(op["re"]) != req.dim or len(op["im"][-1]) != req.dim:
            return f"build operator {name} is not {req.dim} x {req.dim}"
    return None

