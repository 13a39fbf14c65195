"""Heat kernel of the combinatorial Laplacian on the integer line.

The kernel is evaluated through the Poissonized simple random walk: the
semigroup factors as e^(-t) e^(t(S + S^-1)/2), so the value at n is the
positive series

    heat_z(t, n) = e^(-t) * sum_{m >= |n|, m = n mod 2} (t^m / m!) 2^(-m) C(m, (m+n)/2),

summed in log space with compensated accumulation and a certified Poisson
tail stopping rule. Rows of values (fixed t, n = 0..N) are the scaled
modified Bessel function e^(-t) I_n(t), evaluated with numpy alone:
Debye's uniform asymptotic expansion (DLMF 10.41) for orders n >= 20 at
every t, and the backward ratio recurrence below. The test suite anchors
the rows to 1e-12 relative against an arbitrary-precision Bessel oracle;
at large t the row is the more accurate side, since the series carries
rounding of order t times machine epsilon.

:func:`heat_z_rows` evaluates the rows of a whole vector of times in one
call (array passes over the time x index grid); :func:`heat_z_row` is its
cached one-time view.

The module also carries the auxiliary decay profile ``phi`` and the
weighted sup / l1 bounds of the kernel that drive every large-time
estimate downstream.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

import numpy as np

DEFAULT_TOL = 1e-13

#: (first order, number of terms) per column block of Debye's expansion:
#: past the first order, max_p |u_K(p)| / n^K < 1e-17 for the block's K;
#: the orders below the first block come from a backward recurrence
_DEBYE_BLOCKS = ((20, 16), (64, 10), (200, 7), (1_000, 6), (3_000, 5), (10_000, 4))
#: rows at t up to this take their scale from the mass identity (Miller)
_MILLER_T_MAX = 40.0
#: most columns evaluated in one pass, which bounds the temporaries
_CHUNK = 8192


def check_time(t) -> None:
    """Raise ValueError unless t, a time or an array of times, is finite and
    normal: subnormal times overflow where the rows divide by t (NaN fails)."""
    ts = np.asarray(t, dtype=float)
    bad = ~((ts >= sys.float_info.min) & np.isfinite(ts))
    if bad.any():
        raise ValueError(f"time must be positive, normal and finite, got {ts[bad].flat[0]}")


def heat_z(t: float, n: int, tol: float = DEFAULT_TOL, rtol: float = 1e-12) -> float:
    """Reference series evaluation of the line heat kernel at integer n.

    Stops once the certified tail is below both ``tol`` absolutely and
    ``rtol`` relative to the accumulated value, so deep-tail values keep
    relative precision down to the underflow floor. Two tail bounds are
    combined: the crude Poisson mass past the current index, and the
    two-step term-ratio bound (t/2)^2 / (((m+n)/2+1)((m-n)/2+1)), which
    is decreasing in m and hence certifies a geometric tail once < 1.
    """
    check_time(t)
    n = abs(n)
    log_t = math.log(t)
    log_half_t = log_t - math.log(2.0)
    total = 0.0
    comp = 0.0  # Kahan compensation
    m = n
    while True:
        log_term = (-t + m * log_half_t
                    - math.lgamma((m + n) // 2 + 1)
                    - math.lgamma((m - n) // 2 + 1))
        term = math.exp(log_term)
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
        ratio = (0.25 * t * t) / (((m + n) // 2 + 1) * ((m - n) // 2 + 1))
        if ratio < 0.9:
            tail = term * ratio / (1.0 - ratio)
            if tail <= rtol * total:
                # the absolute contract needs the Poisson mass as well,
                # since underflowed terms escape the ratio route
                if tail <= tol:
                    return total
                if m + 3 > t:
                    log_tail = (-t + (m + 2) * log_t - math.lgamma(m + 3)
                                - math.log1p(-t / (m + 3)))
                    if log_tail < math.log(tol):
                        return total
        m += 2
        if m > 100_000_000:  # pragma: no cover - certified rule always fires first
            raise RuntimeError("series failed to terminate")


def _horner(coefs, x):
    """sum_i coefs[i] x^i, elementwise over the trailing axes."""
    total = coefs[-1]
    for c in coefs[-2::-1]:
        total = total * x + c
    return total


def _debye_coefficients(kmax: int) -> np.ndarray:
    """Debye's polynomials u_k(p), k < kmax, over sqrt(2 pi): entry [d, k] is
    the coefficient of p^d, from u_0 = 1 and u_{k+1}(p) = p^2 (1 - p^2) u_k'(p) / 2
    + (1/8) int_0^p (1 - 5 s^2) u_k(s) ds (DLMF 10.41.9)."""
    poly = np.polynomial.polynomial
    coef = np.zeros((3 * kmax + 1, kmax))
    u = np.ones(1)
    for k in range(kmax):
        coef[: len(u), k] = u
        u = poly.polyadd(poly.polymul([0.0, 0.0, 0.5, 0.0, -0.5], poly.polyder(u)),
                         poly.polyint(poly.polymul([1.0, 0.0, -5.0], u)) / 8.0)
    return coef / math.sqrt(2.0 * math.pi)


_DEBYE = _debye_coefficients(_DEBYE_BLOCKS[0][1])


def _series_groups(n: np.ndarray, kterms: int) -> np.ndarray:
    """Coefficients of p^d in sum_{k < kterms} u_k(p) / n^k / sqrt(2 pi), one
    column per order in n, at [d % 4, d // 4, 0]."""
    debye = _DEBYE[: -(-(3 * kterms - 2) // 4) * 4, :kterms]
    return _horner(debye.T[:, :, None], 1.0 / n).reshape(-1, 4, 1, len(n)).swapaxes(0, 1)


#: the coefficient groups of every block but the open-ended last one
_BLOCK_GROUPS = tuple(_series_groups(np.arange(lo, end, dtype=float), kterms)
                      for (lo, kterms), (end, _) in zip(_DEBYE_BLOCKS, _DEBYE_BLOCKS[1:]))


def _debye_block(t: np.ndarray, start: int, stop: int, block: int) -> np.ndarray:
    """Debye's expansion for orders start..stop-1 of one column block, values
    below e^-700 flushed to zero. The series is Horner in p^4 over groups of
    four coefficients, each by Horner in p, p = n / h, h = hypot(n, t); the
    exponent n phi(t/n) is rewritten as n^2 / (t + h) - n asinh(n/t)."""
    n = np.arange(start, stop, dtype=float)
    lo, kterms = _DEBYE_BLOCKS[block]
    groups = (_BLOCK_GROUPS[block][..., start - lo: stop - lo] if block < len(_BLOCK_GROUPS)
              else _series_groups(n, kterms))
    h = np.hypot(n, t)
    p = n / h
    total = _horner(_horner(groups, p), (p * p) ** 2)
    expo = n * n / (t + h) - n * np.arcsinh(n / t)
    return np.exp(expo, out=np.zeros_like(expo), where=expo >= -700.0) * total / np.sqrt(h)


def heat_z_rows(ts, nmax: int) -> np.ndarray:
    """heat_z(t, n) = e^(-t) I_n(t) for n = 0..nmax, one row per time in ``ts``.

    Orders n >= 20 use Debye's uniform expansion (DLMF 10.41.3), with as
    many terms as keep the first omitted one below 1e-17 relative at every
    t, and values below about 1e-304 flushed to zero. Lower orders come from
    the backward recurrence I_m / I_(m-1) = 1 / (2m/t + I_(m+1) / I_m), stable
    since I_n is the minimal solution, and take their scale from the order-20
    value, or at t <= 40, where the mass past order 63 is below 1e-19, from
    the mass identity (Miller). All steps are elementwise in (t, n): a row
    equals the one-time row bitwise, and a shorter row is its prefix.
    """
    ts = np.asarray(ts, dtype=float).reshape(-1)
    check_time(ts)
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    n0, miller_top = _DEBYE_BLOCKS[0][0], _DEBYE_BLOCKS[1][0]
    top = max(nmax, miller_top - 1)
    rows = np.empty((len(ts), top + 1))
    ends = [min(lo, top + 1) for lo, _ in _DEBYE_BLOCKS[1:]] + [top + 1]
    for block, ((lo, _), end) in enumerate(zip(_DEBYE_BLOCKS, ends)):
        for start in range(lo, end, _CHUNK):
            stop = min(start + _CHUNK, end)
            rows[:, start:stop] = _debye_block(ts[:, None], start, stop, block)
    # steps[m] becomes I_(m+1) / I_m; below t ~ 1e-14 the order-20 value is
    # flushed to zero, and the clamped seed no longer matters
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.fmin(rows[:, n0 + 1] / rows[:, n0], 1.0)
        steps = np.arange(2.0, 2.0 * n0 + 1.0, 2.0)[:, None] / ts
        for m in range(n0 - 1, -1, -1):
            ratio = np.divide(1.0, np.add(steps[m], ratio, out=steps[m]), out=steps[m])
        rel = np.cumprod(steps, axis=0)  # rel[m - 1] = I_m / I_0
        above = np.cumsum(rel[::-1], axis=0)[-1]  # sum of I_m / I_0, m = 1..20
        tail = rows[:, n0 + 1: miller_top].sum(axis=1)
        i0 = np.where(ts <= _MILLER_T_MAX, (1.0 - 2.0 * tail) / (1.0 + 2.0 * above),
                      rows[:, n0] / rel[-1])
    rows[:, 0] = i0
    rows[:, 1:n0] = (i0 * rel[:-1]).T
    return rows[:, : nmax + 1]


@lru_cache(maxsize=512)
def _heat_z_row_cached(t: float, nmax: int) -> np.ndarray:
    row = heat_z_rows([t], nmax)[0]
    row.setflags(write=False)
    return row


def heat_z_row(t: float, nmax: int) -> np.ndarray:
    """heat_z(t, n) for n = 0..nmax as a read-only array: the one-time
    view of :func:`heat_z_rows`."""
    return _heat_z_row_cached(float(t), int(nmax))


def recurrence_residual(t: float, j: int, tol: float = DEFAULT_TOL) -> float:
    """Residual of heat_z(t, j-1) - heat_z(t, j+1) - (2j/t) heat_z(t, j).

    The identity holds exactly for the kernel; the residual reflects only
    evaluation error, a few multiples of ``tol``. Stated for j >= 1 (the
    j = 0 case degenerates to 0 = 0 by symmetry).
    """
    if j < 1:
        raise ValueError("the two-step identity is stated for j >= 1")
    return (heat_z(t, j - 1, tol) - heat_z(t, j + 1, tol)
            - (2.0 * j / t) * heat_z(t, j, tol))


def phi(x):
    """Decay profile -x + sqrt(1+x^2) + log(x / (1 + sqrt(1+x^2))), x > 0
    (elementwise on arrays); heat_z(t, n) <= exp(n phi(t/n)) (Chernoff).

    Rearranged as 1/(x + hypot(x, 1)) - asinh(1/x), which is stable for
    both tiny and huge x. Negative on all of (0, inf).
    """
    if np.any(np.asarray(x) <= 0):
        raise ValueError(f"phi is defined on positive reals, got {x}")
    return 1.0 / (x + np.hypot(x, 1.0)) - np.arcsinh(1.0 / x)


def chernoff(t, m):
    """log of the bound heat_z(t, m) <= exp(m phi(t/m)), m > 0, and its ratio
    bound exp(-asinh(m/t)) from m to m + 1, non-increasing in m since the log
    bound is concave in m with slope -asinh(m/t). Elementwise on arrays."""
    return m * phi(t / m), np.exp(-np.arcsinh(m / t))


def _certified_row_extent(t: float, eps: float, tol: float) -> int:
    # past n with e^(eps/sqrt t) * t/(2(n+1)) <= 1/2 the weighted terms are
    # geometric; start there and let the caller verify the tail numerically
    rate = eps / math.sqrt(t)
    n0 = math.exp(rate) * t
    return int(math.ceil(max(16.0, 1.1 * n0 + 10.0 * math.sqrt(t + 1.0) + 30.0)))


def _weighted_row(t: float, eps: float, tol: float) -> tuple[np.ndarray, float]:
    """Weighted values e^(eps n / sqrt t) heat_z(t, n) plus a tail bound."""
    rate = eps / math.sqrt(t)
    nmax = _certified_row_extent(t, eps, tol)
    while True:
        row = heat_z_row(t, nmax)
        with np.errstate(divide="ignore", over="ignore"):
            weighted = np.exp(rate * np.arange(nmax + 1)) * row
        ratio = math.exp(rate) * t / (2.0 * (nmax + 1))
        last = weighted[-1]
        if ratio < 0.5 and last * ratio / (1.0 - ratio) < tol:
            return weighted, last * ratio / (1.0 - ratio)
        nmax = int(1.5 * nmax) + 16


def _check_weighted(t: float, eps: float, enforce_time_floor: bool) -> None:
    if eps < 0:
        raise ValueError("weight exponent must be >= 0")
    if enforce_time_floor and t < 1.0:
        raise ValueError("weighted bounds are stated for t >= 1; "
                         "pass enforce_time_floor=False to probe small times")


def weighted_sup(t: float, eps: float, tol: float = 1e-12,
                 enforce_time_floor: bool = True, return_log: bool = False) -> float:
    """sup over integers of e^(eps |n| / sqrt t) heat_z(t, n).

    The estimate this feeds is claimed for t >= 1 only; pass
    ``enforce_time_floor=False`` to evaluate the same expression at small
    times (where it blows up for eps > 0). ``return_log`` switches to the
    log of the sup, which survives overflow in the small-time regime.
    """
    _check_weighted(t, eps, enforce_time_floor)
    if not return_log:
        weighted, _ = _weighted_row(t, eps, tol)
        return float(np.max(weighted))
    # log-space variant: rate*n + log heat_z(t, n)
    rate = eps / math.sqrt(t)
    nmax = _certified_row_extent(t, eps, tol)
    row = heat_z_row(t, nmax)
    with np.errstate(divide="ignore"):
        logs = rate * np.arange(nmax + 1) + np.log(row)
    return float(np.max(logs))


def weighted_l1(t: float, eps: float, tol: float = 1e-12,
                enforce_time_floor: bool = True) -> float:
    """Sum over integers of e^(eps |n| / sqrt t) heat_z(t, n).

    Equals 1 exactly at eps = 0 (walk mass); bounded uniformly in t >= 1
    for each eps >= 0. The truncation tail is certified geometric.
    """
    _check_weighted(t, eps, enforce_time_floor)
    weighted, tail = _weighted_row(t, eps, tol)
    return float(weighted[0] + 2.0 * np.sum(weighted[1:]) + 2.0 * tail)


def comparability_ratio(t: float, n: int) -> float:
    """heat_z against its two-sided comparison profile.

    The profile is e^(|n| phi(t/|n|)) / sqrt(|n| + t) away from n = 0 and
    (1 + t)^(-1/2) at n = 0. The bracket the ratio lives in is measured,
    not assumed.
    """
    n = abs(n)
    if n == 0:
        comparison = (1.0 + t) ** -0.5
    else:
        comparison = math.exp(n * phi(t / n) - 0.5 * math.log(n + t))
    return heat_z(t, n) / comparison
