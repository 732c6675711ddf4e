"""Acceptance suite: one test per verification criterion.

Each test prints its own PASS/FAIL line (visible with -s, and always via
`lyapunov-lab verify`) and asserts the criterion at its stated tolerance.
Seeds are frozen; reruns are bit-identical.
"""

import dataclasses
import time

import pytest

from lyapunov_lab import verification as V


@pytest.fixture(scope="module")
def eta_result():
    from lyapunov_lab import gaussian

    return gaussian.eta(80, 201)


def _report(check):
    line = V.format_line(check)
    print()
    print(line)
    assert check.passed, line


def test_c01_eta_constant():
    t0 = time.perf_counter()
    check = V.check_eta_value(quad_order=80, grid_size=201)
    elapsed = time.perf_counter() - t0
    print()
    print(V.format_line(check), f"[{elapsed:.2f} s]")
    assert elapsed < 10.0
    assert check.passed, V.format_line(check)


def test_c01_eta_check_is_not_vacuous(monkeypatch, eta_result):
    # reference: exp(1/2) E1(1/2) - 2 E log(1+g^2), 30 digits with mpmath
    assert abs(V._eta_closed_form() - (-0.1439957272045392)) < 1e-10

    from lyapunov_lab import gaussian

    off = dataclasses.replace(eta_result, eta_hat=eta_result.eta_hat + 1e-5)
    monkeypatch.setattr(gaussian, "eta", lambda *args, **kwargs: off)
    check = V.check_eta_value()
    assert not check.passed, V.format_line(check)


def test_c01_eta_check_fails_when_mean_f_is_not_flat(monkeypatch):
    # a tilt of 5e-7 keeps the grid maximum (at rho = 0) within 1e-6 of the
    # closed form, so only the flatness guard can fail the check
    from lyapunov_lab import gaussian

    flat = gaussian.expected_f
    monkeypatch.setattr(gaussian, "expected_f", lambda rho, quad_order=80: flat(rho, quad_order) - 5e-7 * rho)
    check = V.check_eta_value()
    assert abs(float(check.observed) - float(check.expected)) < 1e-6
    assert not check.passed, V.format_line(check)


def test_c02_vt_limit():
    t0 = time.perf_counter()
    check = V.check_vt_log4()
    elapsed = time.perf_counter() - t0
    print()
    print(V.format_line(check), f"[{elapsed:.1f} s]")
    assert elapsed < 120.0
    assert check.passed, V.format_line(check)


def test_c03_gaussian_rate_equals_lambda_v():
    _report(V.check_gaussian_rate())


def test_c04_rate_equality_exact_vs_chain():
    _report(V.check_theorem1_rates())


def test_c05_weighted_rate_equality():
    _report(V.check_theorem9_weighted())


def test_c06_coordinate_tail_bound():
    _report(V.check_corollary8_tails())


def test_c07_inverse_norm_inequality():
    _report(V.check_alpha_dominates_mc())
    _report(V.check_alpha_two_coord_enum())


def test_c08_signed_sum_atoms():
    _report(V.check_lo_bruteforce())
    _report(V.check_lo_erdos())
    _report(V.check_lo_sarkozy_echo())


def test_c09_coupling_contraction(eta_result):
    _report(V.check_coupling_contraction(eta_hat=eta_result.eta_hat))


def test_c10_exact_path_determinism():
    _report(V.check_exact_determinism())
