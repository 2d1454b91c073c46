"""spinphase benchmark: drives ``spinphase.cli.main(argv)`` in-process.

Usage, from the root of a source checkout::

    python3 benchmarks/run.py --workload mixed --seed 1 --seconds 45 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 45 --trace 1

(``all`` runs each workload in a child process of its own.)

Load model: a closed loop from one client thread.  Each cycle sends every
request of the workload once, in an order drawn from the seed, and the next
request only after the previous one returned.  The run measures whole cycles
until ``--seconds`` have passed; an untraced run also measures at least
``MIN_CYCLES`` of them (within ``RUN_LIMIT_S``).  Set-up probes run in
fresh processes between cycles, outside the measured time.  The only other
threads are the CLI's own ``sweep --jobs 2`` pool; OpenBLAS is held to one
thread (see ``BLAS_THREADS``).

Every request is timed twice: in CPU seconds of the whole process
(``time.process_time``, all threads) and in wall seconds.  The bounded
metrics use CPU time.  On a shared virtual machine the hypervisor takes the
CPU away from the guest for a varying share of the time (steal time), which
moves wall-clock medians between runs of the same code by more than any
bound could allow; the guest does not charge stolen time to the process, so
its CPU time stays steady.  The wall-clock figures are in the summary and
the result file.

``--trace 0`` prints the end-to-end metrics of an untraced run.  ``--trace 1``
alternates untraced and traced cycles and prints the per-layer metrics of the
traced ones (see ``tracing.py``) and ``trace_overhead_ratio``.  A summary is
printed first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result, with the run's
environment, is also written to ``.bench_out/`` at the checkout root.

A request *fails* when it raises an uncaught exception, exits outside
{0, 1, 2}, or its output differs from an earlier repeat of the same argv
(``--jobs`` does not count: sweeps at ``--jobs 1`` and ``2`` must agree).
The run is *correct* when no output differs from its repeats, every
output passes the structural checks in ``workloads.check_output``, and (in
an untraced run of a ``TAIL_ON_SLOWEST`` workload) the samples at and beyond
the tail percentile all come from the argv with the highest median CPU time.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # the run's time limit counts from here

import argparse
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from workloads import TAIL_ON_SLOWEST, WORKLOADS, Generator, Request, check_output

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 9  # spread over the measured window, so machine drift averages out
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
# An untraced run measures at least this many cycles, so every argv has more
# than TAIL_BEYOND samples: with one slow request per cycle the tail then
# falls inside that request's samples ...
MIN_CYCLES = TAIL_BEYOND + 1
# ... unless one more cycle would end the process later than this, in
# seconds from its start (a run must end within 180 s)
RUN_LIMIT_S = 150.0
# OpenBLAS threads that wait for work spin on the CPU, so with more than one
# they double the CPU time of small-matrix requests and make it noisy; the
# benchmark holds them to one (child set-up probes inherit it)
BLAS_THREADS = "1"

# which metrics exist, and in what unit, is decided in BENCHMARK.json alone
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
# per-layer: a span name + statistic per traced cycle, or a counter from
# tracing.summarize
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


@dataclass(frozen=True)
class Outcome:
    cpu: float  # CPU seconds of the process (all threads) inside cli.main
    wall: float  # wall seconds inside cli.main
    failed: bool
    nbytes: int  # stdout + report bytes
    scenarios: int  # scenarios resolved and built
    key: tuple[str, ...]  # argv without --jobs


class Client:
    """Sends requests to ``cli.main`` and checks what comes back."""

    def __init__(self, main) -> None:
        self.main = main
        self.reference: dict[tuple[str, ...], str] = {}
        self.problems: list[str] = []
        self.codes: Counter = Counter()

    def call(self, req: Request, tracer=None, request_id: int = 0) -> Outcome:
        if req.report and os.path.exists(req.report):
            os.remove(req.report)
        out, err = io.StringIO(), io.StringIO()
        code: int | str
        with redirect_stdout(out), redirect_stderr(err):
            start, cpu_start = time.perf_counter(), time.process_time()
            try:
                if tracer is None:
                    code = self.main(list(req.argv))
                else:
                    code = tracer.call(request_id, self.main, list(req.argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # the request fails; the loop goes on
                code = type(exc).__name__
            cpu = time.process_time() - cpu_start
            wall = time.perf_counter() - start
        stdout = out.getvalue()
        report = None
        if req.report and os.path.exists(req.report):
            report = Path(req.report).read_text(encoding="utf-8")
        self.codes[str(code)] += 1
        nbytes = len(stdout.encode()) + (len(report.encode()) if report else 0)
        failed = code not in (0, 1, 2)
        key = _without_jobs(req.argv)
        if not failed:
            digest = hashlib.sha256(
                "\0".join((str(code), stdout, err.getvalue(), report or "")).encode()
            ).hexdigest()
            if key not in self.reference:
                self.reference[key] = digest
                problem = check_output(req, code, stdout, report)
                if problem:
                    self._problem(f"{problem}: {' '.join(req.argv)}")
            elif self.reference[key] != digest:
                failed = True
                self._problem(f"output differs from an earlier repeat: {' '.join(req.argv)}")
        scenarios = req.scenarios if not failed and code in (0, 1) else 0
        return Outcome(cpu, wall, failed, nbytes, scenarios, key)

    def _problem(self, text: str) -> None:
        if text not in self.problems:
            self.problems.append(text)


def _without_jobs(argv: tuple[str, ...]) -> tuple[str, ...]:
    if "--jobs" not in argv:
        return argv
    i = argv.index("--jobs")
    return argv[:i] + argv[i + 2:]


def percentile(sorted_values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """The highest percentile that keeps TAIL_BEYOND samples beyond it."""
    return max(0.0, 100.0 * (1.0 - TAIL_BEYOND / n))


def slowest_argv(samples: list[Outcome]) -> tuple[str, ...]:
    by_key: dict[tuple[str, ...], list[float]] = {}
    for s in samples:
        by_key.setdefault(s.key, []).append(s.cpu)
    return max(by_key, key=lambda k: statistics.median(by_key[k]))


def end_to_end(samples: list[Outcome], setup_s: float, peak_rss_mb: float) -> tuple[dict, dict]:
    cpu = sorted(s.cpu for s in samples)
    wall = sorted(s.wall for s in samples)
    # the samples the tail interpolates between and those beyond it
    tail_keys = {s.key for s in sorted(samples, key=lambda s: s.cpu)[-(TAIL_BEYOND + 1):]}
    busy = sum(cpu)
    completed = sum(not s.failed for s in samples)
    tail_pct = tail_percentile(len(cpu))
    values = {
        "setup_s": setup_s,
        "request_cpu_ms_p50": percentile(cpu, 50.0) * 1e3,
        "request_cpu_ms_tail": percentile(cpu, tail_pct) * 1e3,
        "requests_per_cpu_s": completed / busy,
        "scenarios_per_cpu_s": sum(s.scenarios for s in samples) / busy,
        "output_mb_per_cpu_s": sum(s.nbytes for s in samples) / busy / 1e6,
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {
        "latency_samples": len(cpu),
        "tail_percentile": tail_pct,
        "samples_beyond_tail": sum(x > values["request_cpu_ms_tail"] / 1e3 for x in cpu),
        "tail_from_slowest_argv": tail_keys == {slowest_argv(samples)},
        "failed_op_ratio": (len(samples) - completed) / len(samples),
        "cpu_in_cli_s": busy,
        "wall_in_cli_s": sum(wall),
        "wall_ms_p50": percentile(wall, 50.0) * 1e3,
        "wall_ms_tail": percentile(wall, tail_pct) * 1e3,
        "requests_per_wall_s": completed / sum(wall),
    }
    return values, detail


def measure_setup(workload: str, seed: int) -> float:
    """Set-up CPU time of a fresh process: interpreter start, import,
    argument parsing, workload generation."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def blas_threads() -> int | None:
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*blas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "client_threads": 1,
        "machine": platform.machine(),
    }


def run_workload(spinphase, name: str, seed: int, seconds: float, trace: bool, scratch: str) -> dict:
    gen = Generator(seed, scratch)
    reqs = gen.requests(name)
    client = Client(spinphase.cli.main)
    for req in gen.shuffled(reqs):  # warm-up: lazy set-up, reference outputs, checks
        client.call(req)
    client.codes.clear()

    samples: list[Outcome] = []
    setup: list[float] = []
    traced: list[dict] = []
    ratios: list[float] = []
    spans: list[tuple] = []
    if trace:
        from tracing import Tracer, summarize

        tracer = Tracer(spinphase)
    cycles = 0
    probe_s = 0.0  # time in set-up probes, which is not measured time
    start = time.perf_counter()
    while True:
        order = gen.shuffled(reqs)
        untraced = [client.call(req) for req in order]
        samples += untraced
        if trace:
            tracer.patch()
            try:
                with_spans = [client.call(req, tracer, i) for i, req in enumerate(order)]
            finally:
                tracer.unpatch()
            samples += with_spans
            spans = tracer.take()
            jobs = {i: req.jobs for i, req in enumerate(order) if req.kind == "sweep"}
            traced.append(summarize(spans, jobs))
            ratios.append(sum(o.cpu for o in with_spans) / sum(o.cpu for o in untraced))
        cycles += 1
        elapsed = time.perf_counter() - start - probe_s
        if not trace and len(setup) < min(SETUP_PROBES, 1 + int(SETUP_PROBES * elapsed / seconds)):
            # one probe between cycles every seconds / SETUP_PROBES
            probe_start = time.perf_counter()
            setup.append(measure_setup(name, seed))
            probe_s += time.perf_counter() - probe_start
        if elapsed >= seconds and (
            trace or cycles >= MIN_CYCLES
            or time.perf_counter() - _STARTED + elapsed / cycles > RUN_LIMIT_S
        ):
            break
    measured_s = time.perf_counter() - start - probe_s
    while not trace and len(setup) < SETUP_PROBES:  # a run of fewer cycles than probes
        setup.append(measure_setup(name, seed))

    result = {
        "workload": name,
        "seconds": seconds,
        "measured_s": measured_s,
        "cycles": cycles,
        "requests_per_cycle": len(reqs),
        "attempted": len(samples),
        "failed": sum(s.failed for s in samples),
        "exit_codes": dict(sorted(client.codes.items())),
        "problems": client.problems,
        "max_cli_jobs": max((r.jobs for r in reqs), default=0),
    }
    if trace:
        result["metrics"], result["layers"], result["counts_repeat"] = per_layer(traced, ratios)
        result["spans_last_cycle"] = len(spans)
        write_spans(OUT / f"spans-{name}-seed{seed}.jsonl", spans)
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values, detail = end_to_end(samples, statistics.median(setup), peak)
        result["metrics"] = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        result["setup_probes_s"] = setup
        result.update(detail)
        if name in TAIL_ON_SLOWEST and not detail["tail_from_slowest_argv"]:
            result["problems"].append("request_cpu_ms_tail is not within the slowest argv's samples")
    return result


def per_layer(traced: list[dict], ratios: list[float]) -> tuple[dict, dict, bool]:
    """Median over traced cycles of every per-layer metric."""
    names = sorted({n for t in traced for n in t["layers"]})
    layers = {
        n: {stat: statistics.median(t["layers"].get(n, {}).get(stat, 0) for t in traced)
            for stat in ("calls", "busy_ms", "self_ms")}
        for n in names
    }
    counts = [
        ({n: row["calls"] for n, row in t["layers"].items()},
         {k: v for k, v in t["counters"].items() if k != "cli.sweep.pool_efficiency"})
        for t in traced
    ]
    counts_repeat = all(c == counts[0] for c in counts)
    metrics = {}
    for metric, unit in PER_LAYER.items():
        if metric == "trace_overhead_ratio":
            value = statistics.median(ratios)
        elif metric in traced[0]["counters"]:
            value = statistics.median(t["counters"][metric] for t in traced)
        else:
            span, stat = metric.rsplit(".", 1)
            value = layers.get(span, {}).get(stat, 0)
        metrics[metric] = {"value": value, "unit": unit}
    return metrics, layers, counts_repeat


def write_spans(path: Path, spans: list[tuple]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            span, parent, request, name, start, end, raised, info = s
            fh.write(json.dumps({"span": span, "parent": parent, "request": request, "name": name,
                                 "start": start, "end": end, "raised": raised, "info": info}) + "\n")


def summary_lines(result: dict, env: dict) -> list[str]:
    lines = [
        f"# workload {result['workload']}: {result['cycles']} cycles of "
        f"{result['requests_per_cycle']} requests in {result['measured_s']:.1f} s",
        "# env " + " ".join(f"{k}={v}" for k, v in env.items())
        + f" max_cli_jobs={result['max_cli_jobs']}",
        f"# attempted={result['attempted']} failed={result['failed']} "
        f"exit_codes={json.dumps(result['exit_codes'])}",
    ]
    if "failed_op_ratio" in result:
        lines.append(
            f"# failed_op_ratio={result['failed_op_ratio']:.6g}  request_cpu_ms_tail is "
            f"p{result['tail_percentile']:.2f} of {result['latency_samples']} samples "
            f"({result['samples_beyond_tail']} beyond), all from the slowest argv: "
            f"{result['tail_from_slowest_argv']}; rates are per CPU second inside cli.main"
        )
        lines.append(
            f"# wall clock (not bounded): p50 {result['wall_ms_p50']:.6g} ms, tail "
            f"{result['wall_ms_tail']:.6g} ms, {result['requests_per_wall_s']:.6g} requests/s; "
            f"{result['cpu_in_cli_s']:.4g} CPU s in {result['wall_in_cli_s']:.4g} wall s"
        )
    else:
        lines.append(f"# per-cycle medians over traced cycles; counts repeat exactly: "
                     f"{result['counts_repeat']}; dense counts are computed, not measured")
    lines += [f"#   {name:52s} {m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items()]
    lines += [f"# PROBLEM {p}" for p in result["problems"]]
    return lines


def _load_spinphase():
    src = ROOT / "src"
    if not (src / "spinphase" / "__init__.py").is_file():
        raise FileNotFoundError(f"no spinphase source under {src}")
    sys.path.insert(0, str(src))
    import spinphase
    import spinphase.cli

    if Path(spinphase.__file__).resolve().parent != (src / "spinphase").resolve():
        raise ImportError(f"imported spinphase from {spinphase.__file__}, not from {src}")
    return spinphase


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a fresh child process, so none inherits another's
    peak memory or warmed-up state; their result lines are merged."""
    results = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr, end="")
            return proc.returncode
        print("\n".join(lines[:-1]), flush=True)
        results.append((name, json.loads(lines[-1])))
    print(json.dumps({
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": {f"{name}.{k}": m for name, r in results for k, m in r["metrics"].items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS  # before numpy is imported
    try:
        spinphase = _load_spinphase()
    except (FileNotFoundError, ImportError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir()
    try:
        if args.setup_probe:
            Generator(args.seed, str(scratch)).requests(args.workload)
            print(time.process_time())
            return 0
        env = environment(args.seed)
        result = run_workload(spinphase, args.workload, args.seed, args.seconds, bool(args.trace),
                              str(scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result["environment"] = env
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    print("\n".join(summary_lines(result, env)))
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
