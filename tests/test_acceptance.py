"""Acceptance suite: one test per verification criterion.

Each test prints its own PASS/FAIL line (visible with -s, and always via
`lyapunov-lab verify`) and asserts the criterion at its stated tolerance.
Seeds are frozen; reruns are bit-identical.
"""

import dataclasses
import inspect
import math
import time

import numpy as np

from lyapunov_lab import verification as V


def _report(check):
    line = V.format_line(check)
    print()
    print(line)
    assert check.passed, line


def test_every_check_is_a_function_of_the_seed_alone():
    # sizes, streams and tolerances are fixed in each check's body
    checks = [getattr(V, name) for name in dir(V) if name.startswith("check_")]
    assert len(checks) == 17
    for check in checks:
        assert list(inspect.signature(check).parameters) in ([], ["seed"]), check.__name__


def test_c01_eta_constant():
    t0 = time.perf_counter()
    check = V.check_eta_value()
    elapsed = time.perf_counter() - t0
    print()
    print(V.format_line(check), f"[{elapsed:.2f} s]")
    assert elapsed < 10.0
    assert check.passed, V.format_line(check)


def test_c01_eta_check_is_not_vacuous(monkeypatch):
    from lyapunov_lab import gaussian

    scan = gaussian.eta(80, 201)
    off = dataclasses.replace(scan, eta_hat=scan.eta_hat + 1e-5)
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


def test_c02_vt_check_is_not_vacuous(monkeypatch):
    # a run_vt whose rate is log 4 + 0.03: inside the old +-0.07 band, but many batch-means se out
    from lyapunov_lab import recursion

    def drifted(n, rng):
        return np.concatenate(([0.0], np.cumsum(math.log(4.0) + 0.03 + rng.normals(n))))

    monkeypatch.setattr(recursion, "run_vt", drifted)
    check = V.check_vt_log4()
    assert abs(float(check.observed) - float(check.expected)) <= 0.07
    assert not check.passed, V.format_line(check)


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


def test_c07_two_coord_enum_fails_on_biased_signs(monkeypatch):
    # signs that are +1 with probability 3/4 give E = 0.7358, not the
    # enumerated 0.78868: the Monte Carlo half of the check must catch it
    from lyapunov_lab import bounds

    def biased(law, rng, k):
        return np.where(rng.uniforms(k) < 0.75, 1.0, -1.0)

    monkeypatch.setattr(bounds, "sample_row", biased)
    check = V.check_alpha_two_coord_enum()
    assert check.observed == "0.7886751"
    assert not check.passed, V.format_line(check)


def test_c08_signed_sum_atoms():
    _report(V.check_lo_bruteforce())
    _report(V.check_lo_erdos())
    _report(V.check_lo_sarkozy_echo())


def test_c09_coupling_contraction():
    _report(V.check_coupling_contraction())


def test_c10_exact_path_determinism():
    _report(V.check_exact_determinism())
