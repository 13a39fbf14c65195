"""Heat kernel of the combinatorial Laplacian on the integer line.

The kernel is evaluated through the Poissonized simple random walk: the
semigroup factors as e^(-t) e^(t(S + S^-1)/2), so the value at n is the
positive series

    heat_z(t, n) = e^(-t) * sum_{m >= |n|, m = n mod 2} (t^m / m!) 2^(-m) C(m, (m+n)/2),

summed in log space with compensated accumulation and a certified Poisson
tail stopping rule. Rows of values (fixed t, n = 0..N) go through a fast
path, the scaled modified Bessel function of the first kind. The test
suite anchors that row to 1e-12 relative against an arbitrary-precision
Bessel oracle; at large t the row is the more accurate side, since the
series carries rounding of order t times machine epsilon. For arguments
beyond the range of the library Bessel routine a large-argument
asymptotic row takes over (machine precision once t >> n^2).

:func:`heat_z_rows` evaluates the rows of a whole vector of times in one
call (one library call over the time x index grid); :func:`heat_z_row`
is its cached one-time view.

The module also carries the auxiliary decay profile ``phi`` and the
weighted sup / l1 bounds of the kernel that drive every large-time
estimate downstream.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import scipy.special

DEFAULT_TOL = 1e-13

# scipy's scaled Bessel is reliable below this argument; above it the
# asymptotic row is already at machine precision for the orders we use
_IVE_T_MAX = 2.0**29


def check_time(t) -> None:
    """Raise ValueError unless t, a time or an array of times, is positive
    and finite (NaN fails too)."""
    ts = np.asarray(t, dtype=float)
    bad = ~((ts > 0) & np.isfinite(ts))
    if bad.any():
        raise ValueError(f"time must be positive and finite, got {ts[bad].flat[0]}")


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


def _asymptotic_scaled_bessel_row(nmax: int, t) -> np.ndarray:
    # large-argument expansion of e^(-t) I_n(t); needs t >> nmax^2. For an
    # array of times the rows stack on the last axis, and each row stops
    # taking terms once its own last term is below 1e-18.
    n = np.arange(nmax + 1, dtype=float)
    mu = 4.0 * n * n
    t = np.asarray(t, dtype=float)[..., None]
    term = np.ones(t.shape[:-1] + n.shape)
    out = np.ones_like(term)
    live = np.ones_like(t, dtype=bool)
    for k in range(1, 40):
        term = -term * (mu - (2 * k - 1) ** 2) / (8.0 * k * t)
        out += np.where(live, term, 0.0)
        live &= np.max(np.abs(term), axis=-1, keepdims=True) >= 1e-18
        if not live.any():
            break
    return out / np.sqrt(2.0 * math.pi * t)


def heat_z_rows(ts, nmax: int) -> np.ndarray:
    """heat_z(t, n) for n = 0..nmax, one row per time in ``ts``.

    Rows are computed elementwise, so each equals the one-time row
    bitwise whatever else is in the batch.
    """
    ts = np.asarray(ts, dtype=float).reshape(-1)
    check_time(ts)
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    big = ts > _IVE_T_MAX
    if np.any(ts[big] < 50.0 * max(nmax, 2) ** 2):  # pragma: no cover - no caller needs this regime
        raise ValueError(f"no accurate evaluation path for t={ts[big].min()}, nmax={nmax}")
    rows = np.empty((len(ts), nmax + 1))
    rows[~big] = scipy.special.ive(np.arange(nmax + 1), ts[~big, None])
    if big.any():
        rows[big] = _asymptotic_scaled_bessel_row(nmax, ts[big])
    return rows


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
