import math

import numpy as np
import pytest
import scipy.linalg

from flowtree import oracle
from flowtree.zline import (
    comparability_ratio,
    heat_z,
    heat_z_row,
    phi,
    recurrence_residual,
    weighted_l1,
    weighted_sup,
)
from flowtree.zline import _asymptotic_scaled_bessel_row


def test_heat_z_basic_values():
    # frozen against the dense interval matrix exponential
    assert heat_z(1.0, 0) == pytest.approx(0.4657596076, abs=1e-9)
    assert heat_z(1.0, 3) == heat_z(1.0, -3)
    with pytest.raises(ValueError):
        heat_z(0.0, 1)
    with pytest.raises(ValueError):
        heat_z(-1.0, 0)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_nonfinite_time_rejected(t):
    with pytest.raises(ValueError, match="time must be positive"):
        heat_z(t, 1)
    with pytest.raises(ValueError, match="time must be positive"):
        heat_z_row(t, 4)


@pytest.mark.parametrize("t", [0.5, 1.0, 10.0])
def test_heat_z_unit_mass(t):
    total = weighted_l1(t, 0.0, enforce_time_floor=False)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_heat_z_monotone_in_distance():
    for t in (0.3, 1.0, 7.0, 300.0):
        row = heat_z_row(t, 120)
        assert np.all(np.diff(row) <= 1e-18)


def test_heat_z_matches_interval_matrix_exponential():
    worst = 0.0
    for t in (0.5, 1.0, 5.0, 20.0):
        col = oracle.z_heat_column(t, 100)
        for n in range(51):
            worst = max(worst, abs(heat_z(t, n) - col[n]) / col[n])
    assert worst <= 1e-8


def test_heat_z_matches_library_expm_at_moderate_entries():
    # generic matrix exponential loses tiny entries to rounding, so the
    # comparison carries an absolute floor
    half = 60
    n = 2 * half + 1
    w = np.zeros((n, n))
    for i in range(n - 1):
        w[i, i + 1] = w[i + 1, i] = 0.5
    for t in (1.0, 10.0):
        col = (scipy.linalg.expm(t * w) * math.exp(-t))[:, half]
        for m in range(41):
            assert heat_z(t, m) == pytest.approx(col[half + m], rel=1e-8, abs=1e-13)


def test_fast_row_matches_reference_series():
    for t in (0.05, 0.7, 3.0, 42.0):
        row = heat_z_row(t, 60)
        for n in range(0, 60, 7):
            assert row[n] == pytest.approx(heat_z(t, n), rel=1e-12, abs=1e-300)
    # past t of a few hundred the log-space series itself carries rounding
    # of order t * eps through the log-gamma values, so the match is only
    # meaningful to that conditioning
    row = heat_z_row(800.0, 60)
    for n in range(0, 60, 7):
        assert row[n] == pytest.approx(heat_z(800.0, n), rel=1e-11)


def test_asymptotic_row_matches_library_row():
    t = 2.0**28
    direct = heat_z_row(t, 200)
    asym = _asymptotic_scaled_bessel_row(200, t)
    assert np.max(np.abs(asym - direct) / direct) < 1e-12


def test_fast_row_matches_mpmath_bessel_oracle():
    # e^(-t) I_n(t) at 50 digits; t up to 2^34 exercises both the scipy
    # ive route and the large-argument asymptotic row. ive flushes values
    # below about 1e-306 to zero, so the comparison stops at 1e-300.
    mpmath = pytest.importorskip("mpmath")
    ns = (0, 1, 2, 3, 7, 15, 31, 63, 120)
    worst = 0.0
    with mpmath.workdps(50):
        for k in range(-3, 35):
            t = 2.0**k
            row = heat_z_row(t, 120)
            for n in ns:
                exact = mpmath.besseli(n, t) * mpmath.exp(-t)
                if exact < 1e-300:
                    continue
                worst = max(worst, float(abs(row[n] - exact) / exact))
    assert worst <= 1e-12


def test_semigroup_convolution():
    for (t, s, n) in [(0.7, 1.3, 0), (2.0, 2.0, 3), (5.0, 1.0, -2)]:
        total = sum(heat_z(t, n - m) * heat_z(s, m) for m in range(-80, 81))
        assert total == pytest.approx(heat_z(t + s, n), abs=5e-13)


def test_recurrence_residual():
    assert abs(recurrence_residual(1.0, 1)) <= 1e-10
    assert abs(recurrence_residual(50.0, 10)) <= 1e-10
    with pytest.raises(ValueError):
        recurrence_residual(1.0, 0)


def test_phi_closed_form_and_bounds():
    for x in (1e-4, 0.3, 1.0, 10.0, 1e4):
        direct = -x + math.sqrt(1 + x * x) + math.log(x / (1 + math.sqrt(1 + x * x)))
        assert phi(x) == pytest.approx(direct, rel=1e-12)
        assert phi(x) < 0.0
        assert phi(x) <= math.log(x) + 1.0 - math.log(2.0)
    with pytest.raises(ValueError):
        phi(0.0)
    with pytest.raises(ValueError):
        phi(-3.0)


def test_phi_reciprocal_decay():
    xs = np.logspace(0, 4, 200)
    c0 = min(-x * phi(x) for x in xs)
    assert c0 == pytest.approx(0.4671600246, abs=1e-6)
    assert all(phi(x) <= -c0 / x for x in xs)


def test_phi_log_comparability_near_zero():
    # measured bracket of -phi(x)/log(1/x) on (0, 0.1]
    xs = np.logspace(-6, -1, 150)
    ratios = [-phi(x) / math.log(1.0 / x) for x in xs]
    assert 0.85 <= min(ratios) and max(ratios) <= 1.0


def test_weighted_sup_bounded_and_flagged():
    for eps, cap in ((0.0, 0.5), (1.0, 0.7)):
        for t in (1.0, 4.0, 64.0, 1024.0, 4096.0):
            assert weighted_sup(t, eps) * math.sqrt(t) <= cap
    assert weighted_sup(1.0, 0.0) == pytest.approx(heat_z(1.0, 0), rel=1e-12)
    with pytest.raises(ValueError):
        weighted_sup(0.5, 1.0)
    with pytest.raises(ValueError):
        weighted_sup(1.0, -0.1)


def test_weighted_sup_blows_up_at_small_time():
    small = weighted_sup(0.01, 1.0, enforce_time_floor=False, return_log=True)
    at_one = math.log(weighted_sup(1.0, 1.0))
    assert small > at_one + 10.0


def test_weighted_l1_values():
    assert weighted_l1(4.0, 0.0) == pytest.approx(1.0, abs=1e-11)
    vals = [weighted_l1(t, 1.0) for t in (1.0, 16.0, 256.0, 4096.0)]
    assert max(vals) <= 10.0
    for t in (1.0, 9.0):
        a, b, c = (weighted_l1(t, e) for e in (0.0, 0.5, 1.0))
        assert a <= b <= c


def test_comparability_ratio():
    assert comparability_ratio(1.0, 0) == pytest.approx(
        heat_z(1.0, 0) * math.sqrt(2.0), rel=1e-12)
    # measured two-sided bracket over the sweep grid
    lo, hi = math.inf, -math.inf
    for t in np.logspace(math.log10(0.1), 3, 15):
        row = heat_z_row(float(t), 200)
        for n in range(0, 201, 3):
            if row[n] <= 0:
                continue
            r = comparability_ratio(float(t), n)
            lo, hi = min(lo, r), max(hi, r)
    assert 0.3 <= lo <= hi <= 1.0


def test_small_time_power_law():
    for t in (1e-2, 1e-3):
        for n in (1, 2, 3, 5):
            limit = 2.0**-n / math.factorial(n)
            ratio = heat_z(t, n) / t**n
            assert ratio == pytest.approx(limit, rel=2.0 * t + 1e-9)
