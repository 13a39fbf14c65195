import math
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtree import oracle, zline
from flowtree.zline import (
    comparability_ratio,
    heat_z,
    heat_z_row,
    heat_z_rows,
    phi,
    recurrence_residual,
    weighted_l1,
    weighted_sup,
)


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


def test_subnormal_time_rejected_tiny_normal_time_kept():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row = heat_z_rows([1e-300], 3)[0]
        assert row[0] == 1.0 and row[1] == pytest.approx(0.5e-300, rel=1e-15)
        with pytest.raises(ValueError, match="time must be positive, normal"):
            heat_z_rows([1e-310], 3)


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


def _asymptotic_row(nmax: int, t: float) -> np.ndarray:
    # large-argument expansion of e^(-t) I_n(t), n = 0..nmax (DLMF 10.40.1);
    # machine precision once t >> nmax^2. Terms stop below 1e-18.
    mu = 4.0 * np.arange(nmax + 1, dtype=float) ** 2
    term = np.ones(nmax + 1)
    out = np.ones(nmax + 1)
    for k in range(1, 40):
        term = -term * (mu - (2 * k - 1) ** 2) / (8.0 * k * t)
        out += term
        if np.max(np.abs(term)) < 1e-18:
            break
    return out / np.sqrt(2.0 * math.pi * t)


def test_asymptotic_row_matches_library_row():
    t = 2.0**28
    direct = heat_z_row(t, 200)
    asym = _asymptotic_row(200, t)
    assert np.max(np.abs(asym - direct) / direct) < 1e-12


def test_one_route_for_every_time():
    # the Debye route holds out to any finite time: against the
    # large-argument expansion where that one is exact, and by its mass
    worst = 0.0
    for t in (2.0**28, 2.0**30, 2.0**34, 2.0**40, 1e15, 1e18, 1e100):
        row = heat_z_row(t, 200)
        worst = max(worst, float(np.max(np.abs(row / _asymptotic_row(200, t) - 1.0))))
    assert worst <= 1.8e-15
    row = heat_z_rows([2.0**30], 10_000)[0]
    assert np.all(np.isfinite(row)) and np.all(row > 0.0)
    wide = heat_z_rows([2.0**30], 40 * 2**15)[0]
    assert np.array_equal(wide[:10_001], row)
    assert abs(wide[0] + 2.0 * np.sum(wide[1:]) - 1.0) <= 1e-13


def test_row_mass_is_one():
    # e^(-t) (I_0 + 2 sum_n I_n) = 1 to rounding from t = 2^-14 to 2^20,
    # across the switch from the mass-identity scale to the Debye one at t = 40
    worst = 0.0
    for t in 2.0 ** np.arange(-14.0, 20.25, 0.25):
        row = heat_z_row(t, int(40.0 * math.sqrt(t)) + 100)
        worst = max(worst, abs(row[0] + 2.0 * math.fsum(row[1:]) - 1.0))
    assert worst <= 2e-15


def test_debye_polynomials_and_block_term_counts():
    # u_1 and u_2 of DLMF 10.41.10, then the block table: past each
    # block's first order the first omitted term is below 1e-17
    c = zline._DEBYE * math.sqrt(2.0 * math.pi)
    assert c[:4, 1] == pytest.approx([0.0, 3.0 / 24.0, 0.0, -5.0 / 24.0], abs=1e-17)
    assert c[:7, 2] == pytest.approx(
        [0.0, 0.0, 81.0 / 1152.0, 0.0, -462.0 / 1152.0, 0.0, 385.0 / 1152.0], abs=1e-17)
    p = np.linspace(0.0, 1.0, 2001)
    for lo, k in zline._DEBYE_BLOCKS:
        u = np.polynomial.polynomial.polyval(p, zline._debye_coefficients(k + 1)[:, k])
        assert np.max(np.abs(u)) * math.sqrt(2.0 * math.pi) / lo**k < 1e-17


def test_fast_row_matches_mpmath_bessel_oracle():
    # e^(-t) I_n(t) at 50 digits; t = 2^-3..2^34 exercises the Debye orders
    # and the recurrence below them at every scale. Rows flush values
    # below about 1e-304 to zero, so the comparison stops at 1e-300.
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


def test_heat_z_rows_equal_one_time_rows_bitwise():
    # small and large times, a batch mixing both, and every block boundary
    for ts, nmax in (([0.3, 1.0, 7.5, 300.0, 2.0**20], 200),
                     ([2.0**30, 2.0**31, 3.0e9], 50),
                     ([1.0, 2.0**30, 40.0], 50),
                     ([39.0, 41.0, 2.0e8, 1.0e9], 12_000)):
        rows = heat_z_rows(ts, nmax)
        assert rows.shape == (len(ts), nmax + 1)
        for t, row in zip(ts, rows):
            assert np.array_equal(row, heat_z_row(t, nmax)), t
            ref = scipy.special.ive(np.arange(nmax + 1), t)
            sure = ref > 1e-290  # ive returns NaN past t = 2^30
            assert np.all(np.abs(row[sure] - ref[sure]) <= 1e-12 * ref[sure]), t
    with pytest.raises(ValueError, match="time must be positive"):
        heat_z_rows([1.0, math.nan], 4)


def test_rows_match_library_on_time_grid():
    # t = 2^-14..2^29 and one jittered time per octave, orders to 3,000;
    # then one row out to order 45,000 at t = 1.1e6, where ive's own error
    # reaches 1e-11 (2.6e-13 already at order 3,000 against mpmath, where
    # the Debye row reads 5e-16)
    rng = np.random.default_rng(12345)
    ts = np.concatenate([2.0 ** np.arange(-14, 30), 2.0 ** (np.arange(-14, 29) + rng.random(43))])
    for ts, nmax, rel in ((ts, 3000, 1e-12), ([1.1e6], 45_000, 1e-11)):
        rows = heat_z_rows(ts, nmax)
        ref = scipy.special.ive(np.arange(nmax + 1), np.asarray(ts)[:, None])
        sure = ref > 1e-290
        assert np.all(np.abs(rows[sure] - ref[sure]) <= rel * ref[sure])
        assert np.all(rows[~sure] <= 1e-290)


@settings(max_examples=60, deadline=None)
@given(st.floats(-20.0, 40.0), st.floats(-20.0, 40.0), st.integers(0, 2500),
       st.integers(0, 20_000))
def test_row_properties(log2_t, log2_other, nmax, extra):
    t = 2.0**log2_t
    row = heat_z_rows([t, 2.0**log2_other], nmax)[0]
    assert np.array_equal(row, heat_z_row(t, nmax))
    assert np.array_equal(row, heat_z_rows([t], nmax + extra)[0, : nmax + 1])
    assert np.all(np.isfinite(row)) and np.all(row >= 0.0)
    assert np.all(np.diff(row) <= 0.0)
    assert row[0] + 2.0 * np.sum(row[1:]) <= 1.0 + 1e-13
    n = np.arange(1, nmax)
    residual = row[n - 1] - row[n + 1] - (2.0 * n / t) * row[n]
    sure = row[n + 1] > 1e-290
    assert np.all(np.abs(residual[sure]) <= 1e-12 * row[n - 1][sure])
