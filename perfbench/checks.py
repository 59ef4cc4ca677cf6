"""Output checks for the su2qpt CLI, written independently of the package.

Every check takes the bytes one invocation wrote to stdout and returns a
``Verdict``: a list of failures (empty when the output is correct) and a
few ungated statistics that make known defects visible.

References:

- sweep rows are recomputed in mpmath at 50 digits from the float64
  level energies ``intercepts + slopes*lam``, i.e. from the engine's own
  input rounding (a reference built from the exact coupling measures the
  conditioning of the input, not the engine);
- zero-t rows are compared bit-exactly with the closed-form ground index
  M0 = -J + #{lambda_c < lambda}, evaluated in exact rationals;
- ``critical`` reports are compared with lambda_c(n) = e/(N - (2n - 1));
- ``validate`` must report every check passed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from mpmath import mp, mpf

SWEEP_HEADER = "beta,lambda,log_z,mean_energy,entropy,c_star_beta,c_star_lambda,specific_heat"
ZERO_T_HEADER = "lambda,c_star_lambda_zero_t,ground_energy,degeneracy"

# Relative tolerance of the gated sweep fields against the reference.
SWEEP_RTOL = 1e-12
SWEEP_FIELDS = ("log_z", "mean_energy", "c_star_beta", "c_star_lambda", "specific_heat")
# Levels with beta*(E - E0) above this are left out of the reference sums.
# The omitted relative weight is at most (N+1)*exp(-800), below 1e-340
# for any N the CLI accepts in practice.
TRUNCATION_EXPONENT = 800.0
# Jump locations must match the closed form to this distance.
JUMP_TOL = 1e-12
# Zero-t rows: an energy gap below this share of |E0| is float evaluation
# noise (a few ulp), so the engine may merge the two levels.
NOISE_RTOL = Fraction(1, 10**14)
# The N=2 residual search must land this close to the crossing at 1.
CEQ_TOL = 1e-3


@dataclass
class Verdict:
    """Outcome of checking one invocation's output."""

    failures: list[str] = field(default_factory=list)
    # ungated statistics; each is merged across invocations by `merge_stats`
    stats: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures


def merge_stats(into: dict[str, float], stats: dict[str, float]) -> None:
    """Counts add up; ratios (names ending in ``_err``) keep their maximum."""
    for key, value in stats.items():
        if key.endswith("_err"):
            into[key] = max(into.get(key, 0.0), value)
        else:
            into[key] = into.get(key, 0.0) + value


def levels(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Level intercepts M (e_gap = 1) and slopes M^2 - J^2, ascending M."""
    j = n / 2
    m = -j + np.arange(n + 1, dtype=float)
    return m, m * m - j * j


def _rel_err(got: float, want) -> float:
    want = float(want)
    if got == want:
        return 0.0
    return abs(got - want) / max(abs(want), 1e-300)


def reference_row(intercepts: np.ndarray, slopes: np.ndarray, beta: float, lam: float) -> dict:
    """All sweep observables at (beta, lam) in 50-digit arithmetic."""
    e = intercepts + slopes * lam  # the engine's float64 level energies
    e_min = float(e.min())
    keep = beta * (e - e_min) <= TRUNCATION_EXPONENT
    with mp.workdps(50):
        b = mpf(beta)
        e0 = mpf(e_min)
        d = [mpf(float(x)) - e0 for x in e[keep]]
        sl = [mpf(float(x)) for x in slopes[keep]]
        w = [mp.exp(-b * x) for x in d]
        z = mp.fsum(w)
        p = [wi / z for wi in w]
        delta = mp.fsum(pi * di for pi, di in zip(p, d))
        var = mp.fsum(pi * (di - delta) ** 2 for pi, di in zip(p, d))
        mean_slope = mp.fsum(pi * si for pi, si in zip(p, sl))
        cov = mp.fsum(pi * (di - delta) * (si - mean_slope) for pi, di, si in zip(p, d, sl))
        log_z_shifted = mp.log(z)
        return {
            "log_z": -b * e0 + log_z_shifted,
            "mean_energy": e0 + delta,
            "entropy": b * delta + log_z_shifted,
            "c_star_beta": -var,
            "c_star_lambda": mean_slope - b * cov,
            "specific_heat": b * b * var,
        }


def _csv_rows(stdout: bytes, header: str, verdict: Verdict) -> list[list[str]] | None:
    lines = stdout.decode("utf-8", "replace").split("\n")
    if not lines or lines[0] != header:
        verdict.failures.append(f"unexpected header {lines[0][:80]!r}")
        return None
    if lines[-1] != "":
        verdict.failures.append("output does not end with a newline")
        return None
    return [ln.split(",") for ln in lines[1:-1]]


def check_sweep(
    stdout: bytes, n: int, betas: list[float], lams: np.ndarray, sample: list[int]
) -> Verdict:
    """Grid layout exactly, and the sampled rows against the reference."""
    v = Verdict()
    rows = _csv_rows(stdout, SWEEP_HEADER, v)
    if rows is None:
        return v
    expected = len(betas) * len(lams)
    if len(rows) != expected or any(len(r) != 8 for r in rows):
        v.failures.append(f"expected {expected} rows of 8 fields, got {len(rows)}")
        return v
    grid_beta = np.repeat(np.array(betas, dtype=float), len(lams))
    grid_lam = np.tile(lams, len(betas))
    got_beta = np.array([float(r[0]) for r in rows])
    got_lam = np.array([float(r[1]) for r in rows])
    if not (np.array_equal(got_beta, grid_beta) and np.array_equal(got_lam, grid_lam)):
        v.failures.append("beta/lambda columns differ from the requested grid")
        return v

    intercepts, slopes = levels(n)
    entropy_err = 0.0
    for i in sample:
        beta, lam, log_z, mean_e, entropy, c_b, c_l, heat = (float(x) for x in rows[i])
        ref = reference_row(intercepts, slopes, beta, lam)
        got = {
            "log_z": log_z,
            "mean_energy": mean_e,
            "c_star_beta": c_b,
            "c_star_lambda": c_l,
            "specific_heat": heat,
        }
        for name in SWEEP_FIELDS:
            err = _rel_err(got[name], ref[name])
            if not err <= SWEEP_RTOL:
                v.failures.append(f"row {i}: {name} rel err {err:.3e} > {SWEEP_RTOL:g}")
        s_ref = float(ref["entropy"])
        if not abs(entropy - s_ref) <= SWEEP_RTOL * max(1.0, abs(s_ref)):
            v.failures.append(f"row {i}: entropy {entropy!r} vs reference {s_ref!r}")
        entropy_err = max(entropy_err, _rel_err(entropy, ref["entropy"]))
    v.stats["entropy_rel_err"] = entropy_err
    return v


def ground_index(n: int, lam: float) -> tuple[Fraction, bool]:
    """Closed-form ground label M0 = -J + #{lambda_c < lam}, and whether
    lam sits exactly on a crossing (then M0 and M0 + 1 are degenerate)."""
    j = Fraction(n, 2)
    x = Fraction(lam)
    n_max = n // 2  # crossings exist while N - (2n - 1) > 0
    if x <= 0:
        count = 0
    else:
        # 1/(N - 2k + 1) < x  <=>  k < (N + 1 - 1/x) / 2
        count = min(max(math.ceil((n + 1 - 1 / x) / 2) - 1, 0), n_max)
    on_crossing = count < n_max and x == Fraction(1, n - 2 * (count + 1) + 1)
    return -j + count, on_crossing


def _level_energy(m: Fraction, j: Fraction, lam: float) -> float:
    # the engine's float64 evaluation: intercept + slope*lam, both exact floats
    return float(m) + float(m * m - j * j) * lam


def _window_slope(start: Fraction, count: int, j: Fraction) -> float:
    """Mean slope of ``count`` adjacent levels from label ``start``, averaged
    as the engine does."""
    return float(np.array([float((start + k) ** 2 - j * j) for k in range(count)]).mean())


def check_zero_t(stdout: bytes, n: int, lams: np.ndarray) -> Verdict:
    """Every row against the closed-form ground index.

    The ground energy must equal the float64 energy of level M0 bit for
    bit; degeneracy 2 and the averaged slope are expected exactly on a
    crossing, degeneracy 1 and the slope of M0 elsewhere.  A row that
    reports more degenerate levels than that must average its slope over
    a run of that many adjacent levels around M0; when the extra levels
    sit further from the ground than float evaluation noise, the row is
    counted in the ungated ``spurious_degeneracy_rows`` statistic.
    """
    v = Verdict()
    rows = _csv_rows(stdout, ZERO_T_HEADER, v)
    if rows is None:
        return v
    if len(rows) != len(lams) or any(len(r) != 4 for r in rows):
        v.failures.append(f"expected {len(lams)} rows of 4 fields, got {len(rows)}")
        return v
    j = Fraction(n, 2)
    spurious = 0
    for i, (row, lam) in enumerate(zip(rows, lams)):
        lam = float(lam)
        got_lam, slope, e0 = float(row[0]), float(row[1]), float(row[2])
        deg = int(row[3])
        if got_lam != lam:
            v.failures.append(f"row {i}: lambda {got_lam!r} != grid value {lam!r}")
            continue
        m0, on_crossing = ground_index(n, lam)
        # within one level of M0 float rounding may pick the neighbour
        near = [m for m in (m0 - 1, m0, m0 + 1) if -j <= m <= j]
        want_e0 = min(_level_energy(m, j, lam) for m in near)
        if e0 != want_e0:
            v.failures.append(f"row {i}: ground energy {e0!r} != {want_e0!r} (M0 = {m0})")
            continue
        want_deg = 2 if on_crossing else 1
        if deg < want_deg:
            v.failures.append(f"row {i}: degeneracy {deg} < {want_deg}")
            continue
        if deg == want_deg:
            want = _window_slope(m0, deg, j)
            if slope != want:
                v.failures.append(f"row {i}: slope {slope!r} != {want!r}")
            continue
        # a level closer to the ground than float evaluation noise counts as
        # degenerate by design; one further away is reported as spurious
        x = Fraction(lam)
        exact = {m: m + (m * m - j * j) * x for m in (m0 + k for k in range(-deg, deg + 1))}
        noise = NOISE_RTOL * max(1, abs(exact[m0]))
        close = sum(1 for m, e in exact.items() if -j <= m <= j and e - exact[m0] <= noise)
        if deg > close:
            spurious += 1
        starts = [m0 - k for k in range(deg) if m0 - k >= -j and m0 - k + deg - 1 <= j]
        means = [_window_slope(s, deg, j) for s in starts]
        if not any(abs(slope - w) <= 1e-14 * abs(w) for w in means):
            v.failures.append(f"row {i}: slope {slope!r} is no mean of {deg} levels around M0")
    v.stats["spurious_degeneracy_rows"] = spurious
    return v


def check_critical(stdout: bytes, n: int) -> Verdict:
    """Analytic block exact, jumps on the closed form, N=2 residual converged."""
    v = Verdict()
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        v.failures.append(f"report is not JSON: {exc}")
        return v
    j = n / 2
    want = [
        {"n": k, "lambda_c": 1.0 / (n - (2 * k - 1)), "lower_m": -j + k - 1, "upper_m": -j + k}
        for k in range(1, n // 2 + 1)
    ]
    if report.get("n_particles") != n or report.get("analytic") != want:
        v.failures.append("analytic block differs from e/(N - (2n - 1))")
    jumps = report.get("jumps") or {}
    dist = jumps.get("max_distance_to_analytic")
    if dist is None or not dist <= JUMP_TOL:
        v.failures.append(f"jumps.max_distance_to_analytic = {dist!r} > {JUMP_TOL:g}")
    if len(jumps.get("jumps", [])) != len(want):
        v.failures.append(f"{len(jumps.get('jumps', []))} jumps for {len(want)} crossings")
    if n == 2:
        ceq = report.get("ceq") or {}
        xi = ceq.get("xi_star")
        if not (ceq.get("converged") is True and xi is not None and abs(xi - 1.0) <= CEQ_TOL):
            v.failures.append(f"ceq not converged to 1: {ceq!r}")
    peaks = report.get("peaks")
    if peaks is None:
        v.failures.append("no peaks block")
    else:
        v.stats["unresolved_peaks"] = len(peaks.get("warnings", []))
    return v


def check_validate(stdout: bytes) -> Verdict:
    v = Verdict()
    lines = stdout.decode("utf-8", "replace").strip().split("\n")
    if lines[-1] != "8/8 checks passed":
        v.failures.append(f"validate summary {lines[-1]!r}")
    return v
