"""Acceptance suite: one test per verification criterion.

Each test prints its own PASS/FAIL line (visible with -s, and always via
`lyapunov-lab verify`) and asserts the criterion at its stated tolerance.
Seeds are frozen; reruns are bit-identical.
"""

import dataclasses
import inspect
import math
import textwrap
import time

import numpy as np
import pytest

from lyapunov_lab import chain, recursion
from lyapunov_lab import verification as V


def _report(check):
    line = V.format_line(check)
    print()
    print(line)
    assert check.passed, line


def _mutate(monkeypatch, module, name, old, new):
    """Rebind module.name to its own source with the text `old` replaced by `new`: one plausible defect."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(old) == 1, f"{old!r} is not one line of {name}"
    scope = dict(vars(module))
    exec(source.replace(old, new), scope)
    monkeypatch.setattr(module, name, scope[name])


@pytest.fixture
def reference_up_to_4000(monkeypatch):
    """run_chain through the reference loop for n <= 4000, where a mutation of _step, _truncate or weighted_norm shows.

    Longer runs keep the compiled kernel, so a check's 1e6-step chain still takes under a second.
    """
    run_chain, kernel = chain.run_chain, chain._kernel

    def run(law, n, *args, **kwargs):
        monkeypatch.setattr(chain, "_kernel", (lambda: None) if n <= 4000 else kernel)
        return run_chain(law, n, *args, **kwargs)

    monkeypatch.setattr(chain, "run_chain", run)


def _check_names():
    return [name for name in dir(V) if name.startswith("check_")]


def test_every_check_takes_no_argument():
    # the seed, streams, sizes and tolerances are fixed in each check's body
    assert len(_check_names()) == 17
    for name in _check_names():
        assert list(inspect.signature(getattr(V, name)).parameters) == [], name


def test_every_check_is_in_exactly_one_suite():
    listed = [f"check_{name}" for suite in V.SUITES.values() for name in suite]
    assert sorted(listed) == _check_names()


def test_run_suite_returns_the_table_in_order(monkeypatch):
    # each check is looked up by name when it runs, so a stub stands in for it
    for name in _check_names():
        stub = V.CheckResult(name[len("check_"):], "x", "x", "0", True)
        monkeypatch.setattr(V, name, lambda stub=stub: stub)
    table = [name for suite in V.SUITES.values() for name in suite]
    assert [c.name for c in V.run_suite("all")] == table
    assert all(c.elapsed_s >= 0.0 for c in V.run_suite("all"))
    for suite, names in V.SUITES.items():
        assert [c.name for c in V.run_suite(suite)] == list(names)
    with pytest.raises(ValueError, match="unknown suite"):
        V.run_suite("bogus")


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
    def drifted(n, rng):
        return np.concatenate(([0.0], np.cumsum(math.log(4.0) + 0.03 + rng.normals(n))))

    monkeypatch.setattr(recursion, "run_vt", drifted)
    check = V.check_vt_log4()
    assert abs(float(check.observed) - float(check.expected)) <= 0.07
    assert not check.passed, V.format_line(check)


def test_c03_gaussian_rate_equals_lambda_v():
    _report(V.check_gaussian_rate_lambda_v())


def test_c04_rate_equality_exact_vs_chain():
    _report(V.check_theorem1_rates())


@pytest.mark.parametrize(
    "name, old, new",
    [
        ("_step", "rng.seek_row(step)", "rng.seek_row(step + 1)"),  # step t reads row t + 1
        ("_truncate", "coords = coords[: coords.size - j]", "coords = coords[j:]"),  # drops the newest coordinates
    ],
)
def test_c04_theorem1_fails_on_a_mutated_chain(monkeypatch, reference_up_to_4000, name, old, new):
    _mutate(monkeypatch, chain, name, old, new)
    check = V.check_theorem1_rates()
    assert not check.passed, V.format_line(check)


def test_c05_weighted_rate_equality():
    _report(V.check_theorem9_weighted())


def test_c05_theorem9_fails_on_mutated_weights(monkeypatch, reference_up_to_4000):
    _mutate(monkeypatch, chain, "weighted_norm", "np.exp(c * ", "np.exp(1.01 * c * ")  # weights e^(1.01 c i)
    check = V.check_theorem9_weighted()
    assert not check.passed, V.format_line(check)


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
    assert check.expected == "0.7886751"
    assert float(check.observed) == pytest.approx(0.7358, abs=0.005)  # the library's Monte Carlo mean
    assert not check.passed, V.format_line(check)


@pytest.mark.parametrize("name", ["check_alpha_two_coord_enum", "check_alpha_dominates_mc"])
def test_c07_constant_signs_fail_instead_of_raising(monkeypatch, name):
    # every sign +1 makes <eps, y> one value in every sample, so a Monte Carlo
    # se is 0: the check must print a FAIL line with z = inf, not raise ZeroDivisionError
    from lyapunov_lab import laws

    monkeypatch.setattr(laws, "_signs", lambda w: np.ones(w.shape))
    check = getattr(V, name)()
    assert "inf" in check.observed + check.details
    assert not check.passed, V.format_line(check)


def test_c07_two_coord_enum_observes_the_library(monkeypatch):
    # every sign +1 gives g = sqrt2 in every sample: the library's mean is
    # 1/sqrt3, and the line shows it against the enumerated value
    from lyapunov_lab import laws

    monkeypatch.setattr(laws, "_signs", lambda w: np.ones(w.shape))
    line = V.format_line(V.check_alpha_two_coord_enum())
    assert "expected 0.7886751, observed 0.5773503," in line


def test_a_zero_standard_error_gives_z_inf():
    # theorem1_rates, fib_rate_oracle, vt_log4 and gaussian_rate_lambda_v take their z from here too
    assert V._z(0.3, 0.1) == pytest.approx(3.0)
    for diff, se in [(1.0, 0.0), (-1.0, 0.0), (0.0, 0.0), (0.0, math.nan)]:
        assert V._z(diff, se) == math.inf


def test_c08_signed_sum_atoms():
    _report(V.check_lo_bruteforce())
    _report(V.check_lo_erdos_all_ones())
    _report(V.check_lo_sarkozy_echo())


def test_c09_coupling_contraction():
    _report(V.check_coupling_contraction())


def test_c10_exact_path_determinism():
    _report(V.check_exact_determinism())


def test_c10_exact_determinism_fails_on_a_mutated_fib_scale(monkeypatch):
    # fib_rate_oracle passes this defect at z = 2.97; the mutation is made
    # in the reference loop, which runs where the kernel is None
    monkeypatch.setattr(chain, "_kernel", lambda: None)
    _mutate(
        monkeypatch, recursion, "_fibonacci_reference", "log_scale += math.log(m)", "log_scale += 1.01 * math.log(m)"
    )
    check = V.check_exact_determinism()
    assert not check.passed, V.format_line(check)
