"""Acceptance gate: one test per shipped criterion, strict tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -v -s``
or in the failure report) and asserts the corresponding check from
:mod:`su2qpt.validation`, which carries the tolerance and time budget.
"""

import dataclasses
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from su2qpt import model, thermo, transitions, validation
from su2qpt.spin_algebra import Multiplet


def _report(num: int, result) -> None:
    mark = "PASS" if result.passed else "FAIL"
    print(f"{mark} criterion {num}: {result.name}: {result.detail}")
    assert result.passed, f"criterion {num} failed: {result.detail}"


def test_criterion_1_critical_couplings_analytic():
    _report(1, validation.check_critical_couplings())


def test_criterion_2_eigenvalue_lists():
    _report(2, validation.check_eigenvalue_lists())


def test_criterion_2_oracle_rotates(monkeypatch):
    # a diagonal input would pass with 0 sweeps, only sorted: no oracle
    results = []
    solve = validation.jacobi_eigenvalues

    def recording(a, *args, **kwargs):
        results.append(solve(a, *args, **kwargs))
        return results[-1]

    monkeypatch.setattr(validation, "jacobi_eigenvalues", recording)
    assert validation.check_eigenvalue_lists().passed
    assert len(results) == 12
    assert all(r.sweeps_used >= 1 for r in results)


def test_criterion_2_names_the_n_whose_pairs_differ(monkeypatch):
    spectrum = model.analytic_spectrum

    def shifted(m):
        s = spectrum(m)
        return model.Spectrum(s.intercepts, s.slopes - 1.0)

    monkeypatch.setattr(model, "analytic_spectrum", shifted)
    result = validation.check_eigenvalue_lists()
    assert not result.passed
    assert result.detail.startswith("(intercept, slope) pairs differ at N=4;")


def test_criterion_2_fails_on_a_nan_oracle(monkeypatch):
    solve = validation.jacobi_eigenvalues

    def nan_values(a):
        return dataclasses.replace(solve(a), values=np.full(len(a), math.nan))

    monkeypatch.setattr(validation, "jacobi_eigenvalues", nan_values)
    result = validation.check_eigenvalue_lists()
    assert not result.passed
    assert result.detail.startswith("pairs exact, max |jacobi - analytic| = nan;")


def test_criterion_3_n2_exact_transition():
    _report(3, validation.check_n2_transition())


def test_criterion_4_zero_t_staircase():
    _report(4, validation.check_zero_t_staircase())


def test_criterion_4_counts_the_jumps_it_misses(monkeypatch):
    detect = transitions.detect_jumps
    monkeypatch.setattr(transitions, "detect_jumps", lambda s, window: detect(s, window)[:-1])
    result = validation.check_zero_t_staircase()
    assert not result.passed
    assert result.detail.startswith("1 jumps found at N=4, 2 expected;")


def test_criterion_4_fails_on_nan_midpoints(monkeypatch):
    detect = transitions.detect_jumps
    midpoint = transitions.JUMP_COLUMNS.index("midpoint_value")

    def nan_midpoints(s, window):
        jumps = detect(s, window).copy()
        jumps[:, midpoint] = math.nan
        return jumps

    monkeypatch.setattr(transitions, "detect_jumps", nan_midpoints)
    result = validation.check_zero_t_staircase()
    assert not result.passed
    assert result.detail.startswith("max deviation nan (tol 1e-09);")


def test_criterion_5_remnant_peaks():
    _report(5, validation.check_remnant_peaks())


def test_criterion_5_names_a_peak_far_from_its_crossing(monkeypatch):
    # every peak moved 0.06 to the right; the first lies past 1/3 + 0.05
    find_peaks = transitions.find_peaks
    lam_at_peak = transitions.PEAK_COLUMNS.index("lambda_at_peak")

    def moved(*args):
        peaks = find_peaks(*args).copy()
        peaks[:, lam_at_peak] += 0.06
        return peaks

    s4 = model.analytic_spectrum(Multiplet(4))
    first = moved(s4, 110.0, (0.02, 1.4), 1000)[0, lam_at_peak].item()
    monkeypatch.setattr(transitions, "find_peaks", moved)
    result = validation.check_remnant_peaks()
    assert not result.passed
    assert result.detail.startswith(f"peak at lam={first!r} is 0.05 or more from its crossing;")


def test_criterion_5_names_a_nan_peak(monkeypatch):
    # one extra row, at a NaN coupling, in the scan at a single beta only
    find_peaks = transitions.find_peaks
    lam_at_peak = transitions.PEAK_COLUMNS.index("lambda_at_peak")

    def with_nan_row(s, beta, *args):
        peaks = find_peaks(s, beta, *args)
        if np.ndim(beta):
            return peaks
        extra = peaks[-1:].copy()
        extra[:, lam_at_peak] = math.nan
        return np.vstack([peaks, extra])

    monkeypatch.setattr(transitions, "find_peaks", with_nan_row)
    result = validation.check_remnant_peaks()
    assert not result.passed
    assert result.detail.startswith("peak at lam=nan is 0.05 or more from its crossing;")


def test_criterion_6_thermo_engine_properties():
    _report(6, validation.check_thermo_properties())


@pytest.mark.parametrize("field", ["c_star_lambda", "c_star_beta"])
def test_criterion_6_catches_a_derivative_off_by_ten_tolerances(monkeypatch, field):
    # 1 + 1e-4 is ten times the finite-difference tolerance of 1e-5
    observables = thermo.observables

    def scaled(*args):
        obs = observables(*args)
        return dataclasses.replace(obs, **{field: getattr(obs, field) * (1 + 1e-4)})

    monkeypatch.setattr(thermo, "observables", scaled)
    result = validation.check_thermo_properties()
    assert not result.passed
    assert result.detail.startswith(f"{field} FD mismatch at n=2 beta=0.5 lam=0.1;")


def test_criterion_6_fails_on_a_one_sided_infinity(monkeypatch):
    # c*_lambda infinite at every beta > 0 for the unshifted spectra only: N
    # is even, so theirs are the ones with a zero intercept (M = 0)
    observables = thermo.observables

    def infinite(s, beta, lam):
        obs = observables(s, beta, lam)
        if beta > 0 and 0.0 in s.intercepts:
            return dataclasses.replace(obs, c_star_lambda=math.inf)
        return obs

    monkeypatch.setattr(thermo, "observables", infinite)
    result = validation.check_thermo_properties()
    assert not result.passed
    assert result.detail.startswith("shift invariance broken at n=2 beta=0.5 lam=0.1;")


@pytest.mark.parametrize(
    "broken, note",
    [
        (
            lambda beta, obs: dataclasses.replace(obs, occupations=2.0 * obs.occupations),
            "occupations broken at n=2 beta=0.5 lam=0.1",
        ),
        (
            # log Z off by 1e-8 relative: -beta*shift no longer relates the two
            lambda beta, obs: dataclasses.replace(obs, log_z=obs.log_z * (1 + 1e-8)),
            "shift invariance broken at n=2 beta=0.5 lam=0.1",
        ),
        (
            # infinite on both sides of the shift, which math.isclose calls close
            lambda beta, obs: dataclasses.replace(obs, log_z=math.inf if beta > 0 else obs.log_z),
            "shift invariance broken at n=2 beta=0.5 lam=0.1",
        ),
        (
            # only the limits evaluate at beta = 0 and beta = 300
            lambda beta, obs: dataclasses.replace(obs, entropy=obs.entropy + 1e-6 * (beta == 0)),
            "entropy(beta=0) != ln(N+1) at n=2",
        ),
        (
            lambda beta, obs: dataclasses.replace(
                obs, entropy=math.nan if beta == 0 else obs.entropy
            ),
            "entropy(beta=0) != ln(N+1) at n=2",
        ),
        (
            lambda beta, obs: dataclasses.replace(obs, entropy=obs.entropy + 1e-3 * (beta == 300)),
            "entropy(beta=300, lambda_c) != ln 2 at n=2",
        ),
    ],
    ids=[
        "occupations",
        "shift-invariance",
        "infinite-log-z",
        "entropy-at-beta-0",
        "nan-entropy-at-beta-0",
        "entropy-at-a-crossing",
    ],
)
def test_criterion_6_names_the_property_it_breaks_first(monkeypatch, broken, note):
    observables = thermo.observables
    monkeypatch.setattr(
        thermo, "observables", lambda s, beta, lam: broken(beta, observables(s, beta, lam))
    )
    result = validation.check_thermo_properties()
    assert not result.passed
    assert result.detail.startswith(f"{note};")


@pytest.mark.parametrize("xi,beta", [(0.1, 0.5), (0.5, 1.0), (0.9, 5.0), (1.3, 20.0), (2.0, 0.1)])
def test_criterion_6_decimal_mean_energy_matches_the_n2_closed_form(xi, beta):
    # the spectrum {-1, -xi, +1} of N = 2 at lambda = xi
    s = model.analytic_spectrum(Multiplet(2))
    with localcontext() as ctx:
        ctx.prec = 50
        got = float(validation._decimal_mean_energy(s, Decimal(beta), Decimal(xi)))
    want = thermo.n2_closed_forms(xi, beta).mean_e
    assert abs(got - want) <= 1e-15 * abs(want)


def test_criterion_7_numerical_robustness():
    _report(7, validation.check_robustness())


@pytest.mark.parametrize(
    "broken",
    [
        lambda obs: dataclasses.replace(obs, occupations=np.append(obs.occupations[1:], math.nan)),
        lambda obs: dataclasses.replace(obs, entropy=math.inf),
    ],
    ids=["nan-occupation", "infinite-entropy"],
)
def test_criterion_7_catches_a_non_finite_field(monkeypatch, broken):
    observables = thermo.observables
    monkeypatch.setattr(thermo, "observables", lambda *args: broken(observables(*args)))
    result = validation.check_robustness()
    assert not result.passed
    assert result.detail.startswith("non-finite value encountered;")


def test_criterion_8_sweep_determinism():
    _report(8, validation.check_determinism())
