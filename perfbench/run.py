"""Benchmark for the su2qpt CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload is a fixed list of ``su2qpt`` invocations, each
started in a fresh interpreter, one at a time, stdout read through a
pipe and checked for correctness afterwards.  The seed shifts the
lambda grids by a small offset and picks the sweep rows that are checked
against the high-precision reference; the work per run is the same for
every seed.

The host's speed drifts (a shared vCPU runs up to 2x slower for tens of
seconds at a time), so every child is bracketed by a calibration kernel
on the same pinned CPU, and the times reported are the measured ones
scaled to a fixed reference speed: ``t * CALIBRATION_REF_S / cal``.
The unscaled samples and medians are kept in the record.

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it alternates untraced iterations with traced ones (each
invocation then runs under ``trace_child.py``) and reports the per-layer
metrics.  The metric names and units come from ``BENCHMARK.json``.  The
last line of stdout is one JSON object; the full record, environment
included, goes to ``.perfbench/BENCH_<workload>_seed<seed>_trace<t>.json``.
``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import selectors
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import mpmath
import numpy as np

import checks

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
NPROC = len(os.sched_getaffinity(0))  # before pin_to_one_cpu
# every child, and the whole run, must be done well inside 180 s
RUN_DEADLINE_S = 170.0
# numpy's BLAS may not use more threads than this (<= nproc)
BLAS_THREADS = "1"
SWEEP_SAMPLE_ROWS = 48
SETUP_CODE = (
    "import sys\n"
    "import su2qpt.cli\n"
    "from su2qpt.model import analytic_spectrum, critical_couplings\n"
    "from su2qpt.spin_algebra import Multiplet\n"
    "m = Multiplet(int(sys.argv[1]))\n"
    "analytic_spectrum(m)\n"
    "critical_couplings(m)\n"
)
# A child's ru_maxrss counts the parent's RSS at fork, so a CLI child
# reports its own peak, VmHWM of its exec'd image, as a tagged stderr line.
HWM_TAG = "perfbench-vmhwm-kib"
CLI_CODE = (
    "import sys\n"
    "from su2qpt.cli import main\n"
    "try:\n"
    "    code = main()\n"
    "finally:\n"
    "    with open('/proc/self/status') as fh:\n"
    "        hwm = next(ln.split()[1] for ln in fh if ln.startswith('VmHWM:'))\n"
    f"    sys.stderr.write('{HWM_TAG} ' + hwm + '\\n')\n"
    "sys.exit(code)\n"
)
# Every time a child takes is scaled by CALIBRATION_REF_S / (the mean
# time of a calibration pass measured beside it), i.e. reported as if a
# pass took CALIBRATION_REF_S.  Each kernel's CALIBRATION_REF_S (in
# KERNELS) is a round figure near its pass on a 2-vCPU Intel Xeon VM; any
# fixed value serves, as only ratios between runs matter.
# Calibrate for this share of the child's previous wall time on each side
# of it, so that a long child is scaled by the host's speed over a window
# long enough to average its second-scale jitter.
CALIBRATION_SHARE = 0.1
PROBE_CODE = "import su2qpt, su2qpt.cli, su2qpt.validation\nprint(su2qpt.__file__)\n"


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Invocation:
    argv: list[str]
    # (stdout, rng) -> Verdict; the rng picks rows to sample
    check: Callable
    last_wall_s: float = 0.0  # sizes the calibration around the next run


@dataclass
class Workload:
    setup_n: int  # largest N the workload uses
    make: Callable  # rng -> list[Invocation]
    kernel: str = "interp"  # the calibration kernel, a key of KERNELS


# ---------------------------------------------------------------- workloads


def _grid(a: float, b: float, k: int) -> str:
    return f"{a!r}:{b!r}:{k}"


def sweep_dense(rng: random.Random) -> list[Invocation]:
    off = rng.uniform(0.0, 0.005)
    betas, k = [70.0, 90.0, 110.0], 10_000
    a, b = 0.02 + off, 1.4 + off
    lams = np.linspace(a, b, k)
    argv = ["sweep", "--n", "8", "--beta", "70,90,110", "--lambda-grid", _grid(a, b, k)]

    def check(out, rng):
        sample = rng.sample(range(len(betas) * k), SWEEP_SAMPLE_ROWS)
        return checks.check_sweep(out, 8, betas, lams, sample)

    return [Invocation(argv, check)]


def critical_scan(rng: random.Random) -> list[Invocation]:
    return [
        Invocation(["critical", "--n", str(n)], lambda out, rng, n=n: checks.check_critical(out, n))
        for n in (2, 8, 32, 128)
    ]


# Large enough that building and summing over the N+1 levels dominate,
# small enough (a pass is about 2 s) for several passes in one run.
LARGE_N = 300_000


def large_n(rng: random.Random) -> list[Invocation]:
    n = LARGE_N
    a = 0.3 + rng.uniform(0.0, 0.001)
    sweep_lams = np.linspace(a, a + 0.1, 10)
    z = rng.uniform(0.0, 0.001)
    zero_t_lams = np.linspace(z, z + 1.2, 100)
    return [
        Invocation(
            ["sweep", "--n", str(n), "--beta", "110", "--lambda-grid", _grid(a, a + 0.1, 10)],
            lambda out, rng: checks.check_sweep(out, n, [110.0], sweep_lams, range(10)),
        ),
        Invocation(
            ["zero-t", "--n", str(n), "--lambda-grid", _grid(z, z + 1.2, 100)],
            lambda out, rng: checks.check_zero_t(out, n, zero_t_lams),
        ),
    ]


def validate(rng: random.Random) -> list[Invocation]:
    return [Invocation(["validate"], lambda out, rng: checks.check_validate(out))]


WORKLOADS = {
    "sweep-dense": Workload(8, sweep_dense),
    "critical-scan": Workload(128, critical_scan),
    "large-n": Workload(LARGE_N, large_n, kernel="memory"),
    "validate": Workload(32, validate),
}


# ------------------------------------------------------------------ children

_CAL_SMALL = np.linspace(0.0, 1.0, 9)
_CAL_LARGE = np.linspace(0.0, 1.0, 1_000_000)


def _interp_pass() -> None:
    """Many small numpy reductions and float formatting, as in a sweep."""
    out = []
    for k in range(1000):
        w = np.exp(-_CAL_SMALL * (k * 1e-3))
        z = w.sum()
        out.append(f"{z!r},{float((w / z) @ _CAL_SMALL)!r}")
    ",".join(out)


def _memory_pass() -> None:
    """`_interp_pass`, then many small objects and a reduction over 10^6
    levels, as at large N."""
    _interp_pass()
    levels = tuple((float(i), 0.5 * i, float(i * i)) for i in range(10_000))
    del levels
    float(np.exp(-0.5 * _CAL_LARGE) @ _CAL_LARGE)


# kernel name -> (one pass, CALIBRATION_REF_S); a workload names the
# kernel whose work is most like its own
KERNELS = {"interp": (_interp_pass, 0.01), "memory": (_memory_pass, 0.02)}


def calibrate(kernel: str, min_s: float = 0.0) -> float:
    """Mean time of a pass of a fixed kernel shaped like a workload's hot
    loops, run once and then again until ``min_s`` has passed.

    On a shared host the speed of a vCPU drifts by up to 2x over tens of
    seconds; this kernel, timed right before and after each child on the
    same CPU, measures that drift so it can be divided out.
    """
    t0 = perf_counter()
    passes = 0
    one_pass = KERNELS[kernel][0]
    while not passes or perf_counter() - t0 < min_s:
        one_pass()
        passes += 1
    return (perf_counter() - t0) / passes


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, so that the
    calibration and the child it brackets share it."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@dataclass
class Child:
    returncode: int
    stdout: bytes
    stderr: str
    wall_s: float
    first_byte_s: float
    maxrss_mb: float
    # CALIBRATION_REF_S / calibration time around this child; 1 unscaled
    speed: float = 1.0

    @property
    def scaled_wall_s(self) -> float:
        return self.wall_s * self.speed

    @property
    def scaled_first_byte_s(self) -> float:
        return self.first_byte_s * self.speed


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(WORK / "tmp")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def spawn(cmd: list[str], env: dict[str, str], deadline: float) -> Child:
    """Run one child to completion, timing its first stdout byte and exit."""
    err_path = WORK / "stderr.txt"
    with open(err_path, "w+b") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        reaped = False
        try:
            chunks, first = [], None
            fd = proc.stdout.fileno()
            with selectors.DefaultSelector() as sel:
                sel.register(fd, selectors.EVENT_READ)
                while True:
                    if not sel.select(timeout=max(deadline - perf_counter(), 0.0)):
                        raise TimeoutError(f"{' '.join(cmd[-6:])} still running at the deadline")
                    chunk = os.read(fd, 1 << 16)
                    if not chunk:
                        break
                    if first is None:
                        first = perf_counter() - t0
                    chunks.append(chunk)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - t0
            reaped = True
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if not reaped:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    maxrss_kib = usage.ru_maxrss
    lines = stderr.splitlines(keepends=True)
    for line in lines:
        if line.startswith(HWM_TAG):
            maxrss_kib = int(line.split()[1])
    stderr = "".join(ln for ln in lines if not ln.startswith(HWM_TAG))
    return Child(
        returncode=proc.returncode,
        stdout=b"".join(chunks),
        stderr=stderr,
        wall_s=wall,
        first_byte_s=wall if first is None else first,
        maxrss_mb=maxrss_kib / 1024.0,
    )


def spawn_calibrated(
    cmd: list[str], env: dict[str, str], deadline: float, kernel: str, expect_s: float
) -> Child:
    """`spawn`, with the calibration kernel timed before and after; each
    side takes CALIBRATION_SHARE of the child's expected wall time."""
    before = calibrate(kernel, CALIBRATION_SHARE * expect_s)
    child = spawn(cmd, env, deadline)
    after = calibrate(kernel, CALIBRATION_SHARE * expect_s)
    child.speed = KERNELS[kernel][1] / ((before + after) / 2)
    return child


# ---------------------------------------------------------------- iterations


@dataclass
class Iteration:
    wall_s: float  # scaled to full host speed, as is first_byte_s
    first_byte_s: float
    raw_wall_s: float
    peak_rss_mb: float
    stdout_bytes: int
    failed: int  # invocations with a bad exit code or failed output check
    failures: list[str]
    stats: dict[str, float]
    spans: list[dict] = field(default_factory=list)
    speeds: list[float] = field(default_factory=list)  # one per child


def run_iteration(
    invocations: list[Invocation], env, deadline: float, rng: random.Random, traced: bool,
    kernel: str,
) -> Iteration:
    children, docs = [], []
    for k, inv in enumerate(invocations):
        if traced:
            spans_path = WORK / f"spans{k}.json"
            cmd = [sys.executable, str(HERE / "trace_child.py"), str(spans_path), *inv.argv]
        else:
            cmd = [sys.executable, "-c", CLI_CODE, *inv.argv]
        children.append(spawn_calibrated(cmd, env, deadline, kernel, inv.last_wall_s))
        inv.last_wall_s = children[-1].wall_s
        if traced:
            docs.append(json.loads(spans_path.read_text(encoding="utf-8")))

    failures: list[str] = []
    stats: dict[str, float] = {}
    failed = 0
    for inv, ch in zip(invocations, children):
        label = " ".join(inv.argv[:3])
        if ch.returncode != 0:
            failed += 1
            failures.append(f"{label}: exit {ch.returncode}: {ch.stderr.strip()[-300:]}")
            continue
        verdict = inv.check(ch.stdout, rng)
        failed += not verdict.ok
        failures += [f"{label}: {msg}" for msg in verdict.failures]
        checks.merge_stats(stats, verdict.stats)
    return Iteration(
        wall_s=sum(ch.scaled_wall_s for ch in children),
        first_byte_s=sum(ch.scaled_first_byte_s for ch in children),
        raw_wall_s=sum(ch.wall_s for ch in children),
        peak_rss_mb=max(ch.maxrss_mb for ch in children),
        stdout_bytes=sum(len(ch.stdout) for ch in children),
        failed=failed,
        failures=failures,
        stats=stats,
        spans=docs,
        speeds=[ch.speed for ch in children],
    )


# ----------------------------------------------------------- per-layer trace

# each route's engine: the function whose calls are the route's work
ROUTE_ENGINES = {
    "transitions.find_peaks": "thermo.observables",
    "transitions.detect_jumps": "thermo.zero_t_c_star_lambda",
    "transitions.qpt_from_ceq": "thermo.ceq_scaled_residual",
}


def layer_metrics(it: Iteration, names: list[str]) -> dict[str, float]:
    """The named per-layer counts and self times of one traced iteration.

    A name ``X.calls`` or ``X.self_s`` is read for any span name X and
    for each layer (the part of X before the first dot); self time is a
    span's duration minus that of its direct children, scaled like the
    end-to-end times by the speed measured around the child.
    """
    calls: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    engine: dict[str, float] = defaultdict(float)
    grid_points = peaks = sweeps = 0
    headroom = []
    for doc, speed in zip(it.spans, it.speeds):
        spans = doc["spans"]
        covered = [0.0] * len(spans)
        for name, parent, t0, t1, _ in spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        route = [-1] * len(spans)  # nearest enclosing route span
        for i, (name, parent, t0, t1, note) in enumerate(spans):
            own = (t1 - t0) - covered[i]
            for key in (name, name.split(".", 1)[0]):
                calls[key] += 1
                self_s[key] += own * speed
            route[i] = i if name in ROUTE_ENGINES else (route[parent] if parent >= 0 else -1)
            if route[i] >= 0 and name == ROUTE_ENGINES[spans[route[i]][0]]:
                engine[spans[route[i]][0]] += 1
            if note:
                grid_points += note.get("grid_points", 0)
                peaks += note.get("peaks", 0)
                sweeps += note.get("sweeps_used", 0)
                if "min_budget_headroom" in note:
                    headroom.append(note["min_budget_headroom"])

    fp_engine = engine["transitions.find_peaks"]
    obs_calls = calls["thermo.observables"]
    special = {
        "cli.import_s": sum(doc["import_s"] * sp for doc, sp in zip(it.spans, it.speeds)),
        "cli.stdout_bytes": it.stdout_bytes,
        "thermo.observables.us_per_call": 1e6 * self_s["thermo.observables"] / obs_calls
        if obs_calls
        else 0.0,
        "thermo.entropy.max_rel_err": it.stats.get("entropy_rel_err", 0.0),
        "transitions.find_peaks.engine_calls": fp_engine,
        "transitions.find_peaks.refine_engine_calls": fp_engine - grid_points,
        "transitions.find_peaks.engine_calls_per_peak": fp_engine / peaks if peaks else 0.0,
        "transitions.detect_jumps.engine_calls": engine["transitions.detect_jumps"],
        "transitions.qpt_from_ceq.engine_calls": engine["transitions.qpt_from_ceq"],
        "transitions.unresolved_peaks": it.stats.get("unresolved_peaks", 0),
        "model.ground_slope.spurious_degeneracy_rows": it.stats.get(
            "spurious_degeneracy_rows", 0
        ),
        "validation.min_budget_headroom": min(headroom) if headroom else 0.0,
        "eigensolver.jacobi_eigenvalues.sweeps_used": sweeps,
    }

    by_kind = {"calls": calls, "self_s": self_s}
    values = {}
    for metric in names:
        if metric in special:
            values[metric] = special[metric]
        else:
            span, kind = metric.rsplit(".", 1)
            values[metric] = by_kind[kind][span]
    return values


# --------------------------------------------------------------------- runs


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "nproc": NPROC,
        "cpu_model": cpu,
        "platform": platform.platform(),
        "blas_threads": int(BLAS_THREADS),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "calibration_ref_s": {k: ref for k, (_, ref) in KERNELS.items()},
    }


def load_spec() -> dict:
    """Metric names and units, after checking this is a su2qpt checkout."""
    path = ROOT / "BENCHMARK.json"
    if not (path.is_file() and (ROOT / "src" / "su2qpt" / "cli.py").is_file()):
        raise BenchError("BENCHMARK.json or src/su2qpt missing; run from the repository root")
    return json.loads(path.read_text(encoding="utf-8"))


def probe(env, deadline: float) -> None:
    """Import the package once (compiling it) and check it is this checkout's."""
    ch = spawn([sys.executable, "-c", PROBE_CODE], env, deadline)
    where = Path(ch.stdout.decode().strip() or ".").resolve()
    if ch.returncode != 0 or (ROOT / "src") not in where.parents:
        raise BenchError(f"su2qpt does not import from {ROOT / 'src'}: {ch.stderr.strip()[-300:]}")


def measure_setup(n: int, env, deadline: float, kernel: str) -> list[Child]:
    """Fresh set-up children: at least 3, more while they are cheap."""
    children: list[Child] = []
    while len(children) < 3 or (sum(ch.wall_s for ch in children) < 2.0 and len(children) < 9):
        expect = children[-1].wall_s if children else 0.0
        cmd = [sys.executable, "-c", SETUP_CODE, str(n)]
        ch = spawn_calibrated(cmd, env, deadline, kernel, expect)
        if ch.returncode != 0:
            raise BenchError(f"set-up child failed: {ch.stderr.strip()[-300:]}")
        children.append(ch)
    return children


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    start = perf_counter()
    deadline = start + RUN_DEADLINE_S
    WORK.mkdir(exist_ok=True)
    (WORK / "tmp").mkdir(exist_ok=True)
    env = child_env()
    probe(env, deadline)

    rng = random.Random(seed)
    workload = WORKLOADS[name]
    invocations = workload.make(rng)
    setup = [] if trace else measure_setup(workload.setup_n, env, deadline, workload.kernel)

    plain: list[Iteration] = []
    traced: list[Iteration] = []
    t_stop = perf_counter() + seconds
    while not plain or perf_counter() < t_stop:
        plain.append(run_iteration(invocations, env, deadline, rng, False, workload.kernel))
        if trace:
            traced.append(run_iteration(invocations, env, deadline, rng, True, workload.kernel))

    everything = plain + traced
    failures = [f for it in everything for f in it.failures]
    # each iteration checks the same invocations: keep the worst one
    stats = {k: max(it.stats.get(k, 0) for it in everything) for k in everything[0].stats}
    attempted = len(invocations) * len(everything)
    failed = sum(it.failed for it in everything)

    def med(values):
        return statistics.median(values), len(values)

    if trace:
        names = [m["name"] for m in spec["per_layer"] if m["name"] != "trace.overhead_s"]
        per_iter = [layer_metrics(it, names) for it in traced]
        values = {name: med([v[name] for v in per_iter]) for name in names}
        values["trace.overhead_s"] = (
            statistics.median(it.wall_s for it in traced)
            - statistics.median(it.wall_s for it in plain),
            len(traced),
        )
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": med([it.wall_s for it in plain]),
            "first_byte_s": med([it.first_byte_s for it in plain]),
            "setup_s": med([ch.scaled_wall_s for ch in setup]),
            "peak_rss_mb": med([it.peak_rss_mb for it in plain]),
        }
        wanted = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]][0], "unit": m["unit"], "samples": values[m["name"]][1]}
        for m in wanted
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "invocations": [["su2qpt", *inv.argv] for inv in invocations],
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": failures[:50],
        "check_stats": stats,
        "reference_truncation": "sweep references drop levels with beta*(E-E0) > "
        f"{checks.TRUNCATION_EXPONENT:g}; omitted relative weight <= (N+1)*exp(-800)",
        "metrics": metrics,
        # medians of the unscaled wall-clock times, for reference
        "raw": {
            "wall_s": statistics.median(it.raw_wall_s for it in plain),
            "setup_s": statistics.median(ch.wall_s for ch in setup) if setup else None,
        },
        "samples": {
            "iterations": len(plain),
            "traced_iterations": len(traced),
            "setup": len(setup),
            "wall_s": [it.wall_s for it in plain],
            "raw_wall_s": [it.raw_wall_s for it in plain],
            "speed": [it.speeds for it in plain],
            "traced_wall_s": [it.wall_s for it in traced],
            "setup_s": [ch.scaled_wall_s for ch in setup],
            "raw_setup_s": [ch.wall_s for ch in setup],
        },
        "elapsed_s": perf_counter() - start,
    }
    out = WORK / f"BENCH_{name}_seed{seed}_trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return record


def report(record: dict) -> None:
    print(
        f"{record['workload']} seed={record['seed']}: {record['samples']['iterations']} iterations"
        f" ({record['samples']['traced_iterations']} traced), {record['attempted']} invocations,"
        f" {record['failed']} failed"
    )
    rows = [(k, m["value"], m["unit"], m["samples"]) for k, m in record["metrics"].items()]
    rows.append(("error_rate", record["error_rate"], "ratio", record["attempted"]))
    rows.append(("raw wall_s (unscaled)", record["raw"]["wall_s"], "s", len(record["samples"]["raw_wall_s"])))
    if not record["trace"]:
        rows.append(("unresolved_peaks", record["check_stats"].get("unresolved_peaks", 0), "count", 1))
    for name, value, unit, n in rows:
        print(f"  {name:<48} {value:>16.6g} {unit:<6} (n={n})")
    for f in record["failures"][:10]:
        print(f"  FAIL {f}")


def result_line(record: dict) -> str:
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                k: {"value": m["value"], "unit": m["unit"]} for k, m in record["metrics"].items()
            },
        }
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        spec = load_spec()
        pin_to_one_cpu()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        records = [run_workload(n, args.seed, args.seconds, bool(args.trace), spec) for n in names]
    except (BenchError, TimeoutError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for rec in records:
        report(rec)
    if len(records) == 1:
        print(result_line(records[0]))
    else:
        print(json.dumps({rec["workload"]: json.loads(result_line(rec)) for rec in records}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
