"""Acceptance gate: one test per shipped criterion, strict tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -v -s``
or in the failure report) and asserts the corresponding check from
:mod:`su2qpt.validation`, which carries the tolerance and time budget.
"""

from su2qpt import validation


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


def test_criterion_3_n2_exact_transition():
    _report(3, validation.check_n2_transition())


def test_criterion_4_zero_t_staircase():
    _report(4, validation.check_zero_t_staircase())


def test_criterion_5_remnant_peaks():
    _report(5, validation.check_remnant_peaks())


def test_criterion_6_thermo_engine_properties():
    _report(6, validation.check_thermo_properties())


def test_criterion_7_numerical_robustness():
    _report(7, validation.check_robustness())


def test_criterion_8_sweep_determinism():
    _report(8, validation.check_determinism())
