"""Acceptance gate: one test per shipped criterion, strict tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -v -s``
or in the failure report) and asserts the corresponding check from
:mod:`su2qpt.validation`, which carries the tolerance and time budget.
"""

import dataclasses
import math

import numpy as np
import pytest

from su2qpt import model, thermo, transitions, validation


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
        return model.Spectrum(s.m_values, s.intercepts, s.slopes - 1.0)

    monkeypatch.setattr(model, "analytic_spectrum", shifted)
    result = validation.check_eigenvalue_lists()
    assert not result.passed
    assert result.detail.startswith("(intercept, slope) pairs differ at N=4;")


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


def test_criterion_5_remnant_peaks():
    _report(5, validation.check_remnant_peaks())


def test_criterion_6_thermo_engine_properties():
    _report(6, validation.check_thermo_properties())


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
