"""Built-in acceptance suite: end-to-end checks with frozen reference values.

One harness, ``_check``, times each check against its fixed budget and
reports it as one CheckResult; the CLI ``validate`` subcommand prints
them as a pass/fail table.  Derivative identities are verified against
50-digit central differences (the standard library's ``decimal``),
because at beta = 50 the energy variance sits fifteen orders of
magnitude below the mean energy and double precision differencing
cannot see it.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import astuple, dataclass
from decimal import Decimal, localcontext
from functools import wraps
from time import perf_counter

import numpy as np

from . import cli, model, spin_algebra, thermo, transitions
from .eigensolver import jacobi_eigenvalues
from .model import Spectrum
from .spin_algebra import Multiplet

__all__ = [
    "CheckResult",
    "check_critical_couplings",
    "check_eigenvalue_lists",
    "check_n2_transition",
    "check_zero_t_staircase",
    "check_remnant_peaks",
    "check_thermo_properties",
    "check_robustness",
    "check_determinism",
    "run_all",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed_s: float


def _check(name: str, budget: float):
    """Make a function returning ``(ok, detail)`` a timed acceptance check.

    The check passes when ok holds and the call took at most ``budget``
    seconds; its detail ends with the elapsed time and the budget.
    """

    def harness(fn):
        @wraps(fn)
        def check() -> CheckResult:
            t0 = perf_counter()
            ok, detail = fn()
            elapsed = perf_counter() - t0
            in_budget = elapsed <= budget
            return CheckResult(
                name=name,
                passed=ok and in_budget,
                detail=f"{detail or 'ok'}; {elapsed:.3f} s (budget {budget:g} s)"
                + ("" if in_budget else " EXCEEDED"),
                elapsed_s=elapsed,
            )

        return check

    return harness


_CROSSINGS = {2: [1.0], 4: [1 / 3, 1.0], 8: [1 / 7, 1 / 5, 1 / 3, 1.0]}


@_check("critical couplings, analytic", budget=1e-3)
def check_critical_couplings():
    """Closed-form crossings for N = 2, 4, 8, exact float agreement."""
    got = {n: model.critical_couplings(Multiplet(n)).tolist() for n in _CROSSINGS}
    ok = got == _CROSSINGS
    return ok, "exact rational agreement" if ok else f"mismatch: {got}"


_EXPECTED_PAIRS = {
    4: [(-2.0, 0.0), (-1.0, -3.0), (0.0, -4.0), (1.0, -3.0), (2.0, 0.0)],
    8: [
        (-4.0, 0.0),
        (-3.0, -7.0),
        (-2.0, -12.0),
        (-1.0, -15.0),
        (0.0, -16.0),
        (1.0, -15.0),
        (2.0, -12.0),
        (3.0, -7.0),
        (4.0, 0.0),
    ],
}


def _x_axis_hamiltonian(m: Multiplet, lam: float) -> np.ndarray:
    """The model's Hamiltonian at e_gap = 1 with its quantisation axis
    turned to x: J_x - lam*(J(J+1) - J_x^2 - N/2), pentadiagonal in the
    J_z basis.

    A rotation leaves the spectrum unchanged, so its eigenvalues must be
    the closed-form levels, yet none of them can be read off the matrix.
    """
    plus = spin_algebra.raising(m)
    jx = (plus + plus.T) / 2.0
    return jx - lam * ((m.casimir - m.j) * np.eye(m.dim) - jx @ jx)


@_check("eigenvalue lists vs Jacobi oracle", budget=1.0)
def check_eigenvalue_lists():
    """Closed-form (intercept, slope) pairs, cross-checked by Jacobi on the
    x-axis form of the Hamiltonian."""
    lams = (0.0, 0.1, 1 / 3, 0.5, 1.0, 1.7)
    worst = 0.0
    for n, pairs in _EXPECTED_PAIRS.items():
        mult = Multiplet(n)
        s = model.analytic_spectrum(mult)
        if list(zip(s.intercepts.tolist(), s.slopes.tolist())) != pairs:
            return False, f"(intercept, slope) pairs differ at N={n}"
        for lam in lams:
            jac = jacobi_eigenvalues(_x_axis_hamiltonian(mult, lam)).values
            ana = np.sort(s.energies(lam))
            worst = np.maximum(worst, np.abs(jac - ana).max())
    return bool(worst <= 1e-10), f"pairs exact, max |jacobi - analytic| = {worst:.2e}"


@_check("N=2 exact transition", budget=1.0)
def check_n2_transition():
    """N=2: residual search at beta=200, analytic limit, slope sign change."""
    res = transitions.qpt_from_ceq(200.0, (0.5, 1.5))
    # the infinite-beta limit of the zero-variance condition is xi = 1 exactly
    ok_search = res.converged and abs(res.xi - 1.0) <= 1e-3
    g_below = thermo.n2_closed_forms(0.95, 30.0).g_xi
    g_above = thermo.n2_closed_forms(1.05, 30.0).g_xi
    ok_sign = g_below > 0.0 > g_above
    return (
        ok_search and ok_sign,
        f"xi* = {res.xi:.8f}, limit = 1 exact, g(0.95) = {g_below:.3e}, g(1.05) = {g_above:.3e}",
    )


_STAIRCASES = {
    4: ([1 / 3, 1.0], [0.0, -3.0, -4.0], [-1.5, -3.5]),
    8: ([1 / 7, 1 / 5, 1 / 3, 1.0], [0.0, -7.0, -12.0, -15.0, -16.0], [-3.5, -9.5, -13.5, -15.5]),
}


@_check("zero-T staircase jumps", budget=1.0)
def check_zero_t_staircase():
    """Jump locations, plateau values and midpoints of the zero-T staircase."""
    tol = 1e-9
    worst = 0.0
    for n, (lams_c, plateaus, midpoints) in _STAIRCASES.items():
        s = model.analytic_spectrum(Multiplet(n))
        jumps = transitions.detect_jumps(s, (0.0, 1.4))
        if len(jumps) != len(lams_c):
            return False, f"{len(jumps)} jumps found at N={n}, {len(lams_c)} expected"
        # the expected rows, in the order of transitions.JUMP_COLUMNS
        want = np.column_stack([lams_c, plateaus[:-1], plateaus[1:], midpoints])
        worst = np.maximum(worst, np.abs(jumps - want).max())
    return bool(worst <= tol), f"max deviation {worst:.2e} (tol {tol:g})"


_BETA = transitions.PEAK_COLUMNS.index("beta")
_LAMBDA_AT_PEAK = transitions.PEAK_COLUMNS.index("lambda_at_peak")
_HEIGHT = transitions.PEAK_COLUMNS.index("height")
_WIDTH = transitions.PEAK_COLUMNS.index("width")


@_check("remnant peak tracking", budget=10.0)
def check_remnant_peaks():
    """Peak assignments, nesting along a beta schedule, 1/beta offset law."""
    s4 = model.analytic_spectrum(Multiplet(4))
    crit = [1 / 3, 1.0]

    lams = transitions.find_peaks(s4, 110.0, (0.02, 1.4), 1000)[:, _LAMBDA_AT_PEAK]
    nearest = [min(crit, key=lambda c: abs(lam - c)) for lam in lams.tolist()]
    far = lams[~(np.abs(lams - nearest) < 0.05)].tolist()
    assigned = set(nearest)
    ok_assign = assigned == set(crit) and not far

    def dominant(betas, grid: int) -> np.ndarray:
        # the highest peak at each beta, all found in one schedule
        cands = transitions.find_peaks(s4, betas, (0.9, 1.1), grid)
        at = [cands[cands[:, _BETA] == b] for b in betas]
        return np.array([rows[np.argmax(rows[:, _HEIGHT])] for rows in at])

    peaks = dominant((70.0, 90.0, 110.0), 512)
    triples = np.column_stack(
        [abs(peaks[:, _LAMBDA_AT_PEAK] - 1.0), peaks[:, _HEIGHT], peaks[:, _WIDTH]]
    )
    ok_nested = bool(np.all(triples[:-1] > triples[1:]))

    betas = (100.0, 200.0, 400.0, 800.0)
    offs = abs(dominant(betas, 1024)[:, _LAMBDA_AT_PEAK] - 1.0)
    slope = float(np.polyfit(np.log(betas), np.log(offs), 1)[0])
    ok_slope = -1.1 <= slope <= -0.9

    return (
        ok_assign and ok_nested and ok_slope,
        (f"peak at lam={far[0]!r} is 0.05 or more from its crossing; " if far else "")
        + f"assignments {sorted(assigned)}, nesting {'ok' if ok_nested else 'BROKEN'}, "
        f"log-log slope {slope:.4f}",
    )


def _decimal_mean_energy(s: Spectrum, beta: Decimal, lam: Decimal) -> Decimal:
    """Mean energy at the precision of the current decimal context.

    Decimal of a float is exact and Decimal.exp rounds correctly, so every
    digit lost comes from the context's precision alone.
    """
    pairs = zip(s.intercepts.tolist(), s.slopes.tolist())
    e = [Decimal(i) + Decimal(sl) * lam for i, sl in pairs]
    e_min = min(e)
    w = [(-beta * (x - e_min)).exp() for x in e]
    w_sum = sum(w)
    acc = sum(wi * (x - e_min) for wi, x in zip(w, e))
    return e_min + acc / w_sum


def _decimal_central(f, x: float, h: float) -> float:
    """The central difference (f(x + h) - f(x - h)) / 2h of a Decimal function, as a float."""
    x, h = Decimal(x), Decimal(h)
    return float((f(x + h) - f(x - h)) / (2 * h))


@_check("thermo engine properties", budget=5.0)
def check_thermo_properties():
    """Occupations, shift invariance, FD-vs-moment derivatives, entropy limits."""
    notes = []
    shift = 0.37
    worst_fd = 0.0
    # decimal.localcontext takes no keyword arguments before Python 3.11
    with localcontext() as ctx:
        ctx.prec = 50
        for n in (2, 4, 8):
            s = model.analytic_spectrum(Multiplet(n))
            shifted = Spectrum(s.intercepts + shift, s.slopes)
            for beta in (0.5, 5.0, 50.0):
                for lam in (0.1, 0.4, 0.9, 1.2):
                    obs = thermo.observables(s, beta, lam)
                    p = obs.occupations
                    if not (abs(p.sum() - 1.0) <= 1e-12 and 0 <= p.min() and p.max() <= 1):
                        notes.append(f"occupations broken at n={n} beta={beta} lam={lam}")
                    obs_sh = thermo.observables(shifted, beta, lam)
                    inv = all(
                        math.isfinite(a) and math.isclose(a, b, rel_tol=1e-10, abs_tol=1e-10)
                        for a, b in [
                            (obs_sh.log_z, obs.log_z - beta * shift),
                            (obs_sh.mean_energy - shift, obs.mean_energy),
                            (obs_sh.c_star_beta, obs.c_star_beta),
                            (obs_sh.c_star_lambda, obs.c_star_lambda),
                            (obs_sh.entropy, obs.entropy),
                        ]
                    ) and np.abs(obs_sh.occupations - p).max() <= 1e-10
                    if not inv:
                        notes.append(f"shift invariance broken at n={n} beta={beta} lam={lam}")
                    h_b = 1e-5 * max(1.0, 1.0 / beta)
                    fd_b = _decimal_central(
                        lambda b: _decimal_mean_energy(s, b, Decimal(lam)), beta, h_b
                    )
                    fd_l = _decimal_central(
                        lambda x: _decimal_mean_energy(s, Decimal(beta), x), lam, 1e-6
                    )
                    for field, fd in (("c_star_beta", fd_b), ("c_star_lambda", fd_l)):
                        got = getattr(obs, field)
                        if not math.isclose(got, fd, rel_tol=1e-5):
                            notes.append(f"{field} FD mismatch at n={n} beta={beta} lam={lam}")
                        worst_fd = max(worst_fd, abs(got - fd) / abs(fd))
                    sh_exact = obs.specific_heat == -(beta * beta) * obs.c_star_beta
                    if not (sh_exact and obs.specific_heat >= 0.0):
                        notes.append(
                            f"specific heat identity broken at n={n} beta={beta} lam={lam}"
                        )
            if not abs(thermo.observables(s, 0.0, 0.7).entropy - math.log(n + 1)) <= 1e-12:
                notes.append(f"entropy(beta=0) != ln(N+1) at n={n}")
            lam_c1 = model.critical_couplings(Multiplet(n))[0].item()
            if not abs(thermo.observables(s, 300.0, lam_c1).entropy - math.log(2.0)) <= 1e-6:
                notes.append(f"entropy(beta=300, lambda_c) != ln 2 at n={n}")
    return not notes, "; ".join(notes[:3]) if notes else f"max FD mismatch {worst_fd:.2e} rel"


@_check("numerical robustness at N=32", budget=1.0)
def check_robustness():
    """No overflow or NaN at N=32 for beta up to 1e4 and lam up to 2."""
    s = model.analytic_spectrum(Multiplet(32))
    ok = all(
        np.isfinite(field).all()
        for beta in (0.0, 1.0, 110.0, 1e4)
        for lam in (0.0, 0.5, 1.0, 2.0)
        for field in astuple(thermo.observables(s, beta, lam))
    )
    return ok, "all observables finite" if ok else "non-finite value encountered"


@_check("sweep determinism", budget=5.0)
def check_determinism():
    """The sweep command run twice must emit byte-identical CSV."""
    args = ["sweep", "--n", "4", "--beta", "110", "--lambda-grid", "0.02:1.4:200", "--out"]
    with tempfile.TemporaryDirectory() as td:
        p1 = os.path.join(td, "a.csv")
        p2 = os.path.join(td, "b.csv")
        rc1 = cli.main(args + [p1])
        rc2 = cli.main(args + [p2])
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            b1, b2 = f1.read(), f2.read()
    ok = rc1 == 0 and rc2 == 0 and b1 == b2 and len(b1) > 0
    return ok, f"{len(b1)} bytes, identical" if ok else "outputs differ"


def run_all() -> list[CheckResult]:
    """Run the acceptance suite: every check in ``__all__``, in its order."""
    # looked up by name at the call, so a wrapper set on the module attribute runs
    return [globals()[name]() for name in __all__ if name.startswith("check_")]
