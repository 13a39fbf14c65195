"""Weighted whole-tree sums of the heat kernel and its gradients.

Every sum of the form  sum_x |K(x, y)| w(d(x, y)) mu(x)  collapses to a
series over sphere strata, because the kernels depend only on the
distance, the level sum, and the order relation of the pair. With the
base vertex placed on level zero, the stratum (k, j) contributes

    count(k, j) * q^((2j-k)/2) * w(k) * |scaled stencil at k|,

and count * q^((2j-k)/2) equals q^(k/2) for the two extreme strata and
(q-1) q^(k/2-1) for each of the k-1 middle ones, so each radius costs a
constant number of stencil evaluations. The scan below assembles, in one
pass, the four kernel kinds, their level-restricted profiles (one bucket
per level offset), the comparable/incomparable split of the first
gradient, and a certified bound for the truncated tail.

The cut is a priori: Chernoff and power-series bounds on the line kernel,
both with non-increasing ratios, fix from t, the weight and tol alone the
radius k_stop past which a geometric series bounds the rest by tol/2.
:func:`scan_many` runs the pass for a vector of times in shared arrays, from
one block of line-kernel rows sized for the largest k_stop; :func:`scan` is
its one-time view, and each result equals the scan of that time alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .heat import STENCILS, jhat_from_z_rows, row_top, scaled_stencils
from .tree import Rel, TreeParams
from .zline import check_time, chernoff, heat_z_rows

KINDS = ("H", "gradX", "gradY", "gradXY")

#: decay powers of t claimed for the four unrestricted sums; the
#: level-restricted versions gain an extra 1/2 each
CLAIMED_POWERS = {"H": 0.0, "gradX": 0.5, "gradY": 0.5, "gradXY": 1.0}

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class ExpWeight:
    """Weight exp(rate * k); ``rate`` is eps/sqrt(t) in the time-scaled sums."""

    rate: float = 0.0

    def log_at(self, k: np.ndarray) -> np.ndarray:
        return self.rate * k

    def ratio_bound(self, k: np.ndarray) -> np.ndarray:
        # exact ratio, constant in k
        return np.full_like(np.asarray(k, dtype=float), math.exp(self.rate))


@dataclass(frozen=True)
class PolyWeight:
    """Weight (1 + c*k)^a with c in (0, 1), a > 0 (dyadic CZ form)."""

    c: float
    a: float

    def log_at(self, k: np.ndarray) -> np.ndarray:
        return self.a * np.log1p(self.c * k)

    def ratio_bound(self, k: np.ndarray) -> np.ndarray:
        # ((1+c(k+1))/(1+ck))^a is decreasing in k, so the value at the
        # current k bounds all later ratios
        k = np.asarray(k, dtype=float)
        return ((1.0 + self.c * (k + 1)) / (1.0 + self.c * k)) ** self.a


@dataclass(frozen=True)
class SumSpec:
    """One weighted sum: kernel kind, time, weight exponent, restriction.

    ``offset`` None is the unrestricted sum; an integer restricts to the
    level offset (moving vertex level minus base vertex level). The
    weighted estimates are claimed for t >= 1; smaller times are only
    meaningful (and allowed) at eps = 0, where mass conservation holds
    for all t.
    """

    kind: str
    t: float
    eps: float = 0.0
    offset: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        check_time(self.t)
        if self.eps < 0:
            raise ValueError("weight exponent must be >= 0")
        if self.eps > 0 and self.t < 1.0:
            raise ValueError("weighted sums with eps > 0 are stated for t >= 1")


@dataclass
class ScanResult:
    """Everything one stratum pass produces. Offsets index ``o + k_stop``;
    ``tail`` is the a priori bound, at most tol/2, on each kind past k_stop."""

    t: float
    k_stop: int
    totals: dict[str, float]
    offsets: dict[str, np.ndarray]
    per_k: dict[str, np.ndarray]
    grad_split: dict[str, tuple[float, float]]
    tail: float
    row_slack: float

    def offset_value(self, kind: str, offset: int) -> float:
        if abs(offset) > self.k_stop:
            return 0.0
        return float(self.offsets[kind][offset + self.k_stop])


def geometric_tail(log_first: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """exp(log_first) / (1 - rho), a bound on a series with first term at most
    exp(log_first) and ratios at most rho; inf where rho >= 1."""
    with np.errstate(over="ignore", divide="ignore"):
        return np.where(rho < 1.0, np.exp(log_first) / (1.0 - rho), np.inf)


def _cut(ts: np.ndarray, weight, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Stop index and tail bound per time, known before any row exists: the
    radius-j term of every kind is at most (16/t)(j+1)(j+4) w(j) hz(t, j-1),
    with hz(t, m) at most exp(m phi(t/m)) (Chernoff) and (t/2)^m / m!. Under
    either, the term ratios have a bound non-increasing in j, so the terms from
    j on sum to at most a geometric series. k_stop is the first k >= 8 whose
    smaller series from k + 1 on, the tail, is at most tol/2."""
    k_stop, tail = np.empty(len(ts), dtype=int), np.empty(len(ts))
    pending = np.arange(len(ts))
    lo, cap = 9, int(72 + 10.0 * math.sqrt(float(ts.max()) + 1.0))
    while pending.size:
        if cap > 4_000_000:
            raise RuntimeError(f"no k_stop <= 4,000,000 at t = {ts[pending].tolist()}")
        j = np.arange(lo, cap + 1, dtype=float)  # first radius of the tail
        m, t = j - 1.0, ts[pending, None]
        log_w = weight.log_at(j)
        with np.errstate(over="ignore"):  # past an infinite weight the sums are infinite
            w = np.exp(log_w)
        _check_finite(w[:1], f"t = {ts[pending].tolist()}", weight)
        log_fact = np.cumsum(np.log(np.arange(1.0, cap)))[lo - 2:]  # log m!
        log_b = np.log(16.0 / t) + np.log((j + 1.0) * (j + 4.0)) + log_w
        rho = weight.ratio_bound(j) * (j + 2.0) * (j + 5.0) / ((j + 1.0) * (j + 4.0))
        log_c, rho_c = chernoff(t, m)
        tails = np.minimum(
            geometric_tail(log_b + log_c, rho * rho_c),
            geometric_tail(log_b + m * np.log(0.5 * t) - log_fact, rho * t / (2.0 * j)))
        good = (tails <= 0.5 * tol) & np.isfinite(w)
        found = good.any(axis=1)
        i = np.argmax(good[found], axis=1)
        k_stop[pending[found]] = lo - 1 + i
        tail[pending[found]] = tails[found, i]
        pending = pending[~found]
        lo, cap = cap + 1, 2 * cap + 32
    return k_stop, tail


def _check_finite(values, at: str, weight) -> None:
    if not np.all(np.isfinite(values)):
        raise OverflowError(f"weighted stratum sum is not finite at {at} with {weight!r}")


def stratum_terms(st: dict[str, np.ndarray], weight, params: TreeParams, at: str):
    """Yield (kind, (terms, up, down, mid)) for the four kinds from scaled
    stencil rows, radius k on the last axis: terms[k] is the weighted
    radius-k total, the equal pair at k = 0; up, down and mid (one middle
    stratum, factor (q-1)/q) are zero at k = 0. Raises OverflowError,
    naming ``at`` and the weight, when a total is not finite."""
    ks = np.arange(st["h"].shape[-1], dtype=float)
    with np.errstate(over="ignore"):  # an infinite weight raises below
        w = np.exp(weight.log_at(ks))
    cmid = (params.q - 1.0) / params.q
    nmid = np.maximum(ks - 1.0, 0.0)  # number of middle strata at radius k
    for kind, (s_up, s_down, s_mid, s_eq) in zip(KINDS, zip(
            *(("h", *STENCILS[rel]) for rel in (Rel.ANCESTOR, Rel.DESCENDANT,
                                               Rel.INCOMPARABLE, Rel.EQUAL)))):
        with np.errstate(invalid="ignore"):
            tu, td, tm = w * st[s_up], w * st[s_down], w * (cmid * st[s_mid])
        tu[..., 0] = td[..., 0] = tm[..., 0] = 0.0
        terms = tu + td + nmid * tm
        terms[..., 0] = st[s_eq][..., 0]
        _check_finite(np.sum(terms, axis=-1), at, weight)
        yield kind, (terms, tu, td, tm)


def _finish_scans(params: TreeParams, ts: np.ndarray, weight, tol: float,
                  signed: bool, hz: np.ndarray, k_stop: np.ndarray,
                  tail: np.ndarray) -> list[ScanResult]:
    """Stratum sums for rows whose stop index is known, all rows at once.

    Arrays run over k = 0..max(k_stop); stencils past a row's own k_stop
    are zeroed, so every sum and bucket equals that of the row alone.
    """
    kx = int(k_stop.max())
    ks = np.arange(kx + 1, dtype=float)
    inside = ks <= k_stop[:, None]
    jhat, eps_top = jhat_from_z_rows(ts, hz, k_stop + 2, params, tol * 1e-3)
    mag = (lambda a: a) if signed else np.abs
    st = {key: np.where(inside[:, : a.shape[1]], mag(a[:, : kx + 1]), 0.0)
          for key, a in scaled_stencils(jhat, params).items()}
    at = f"t = {ts.tolist()}"
    from_k = np.minimum(np.abs(np.arange(-kx, kx + 1)) + 2, kx + 1)
    per_k, rising, offsets = {}, {}, {}
    for kind, (terms, tu, td, tm) in stratum_terms(st, weight, params, at):
        per_k[kind], rising[kind] = terms, tu
        buckets = np.zeros((len(ts), 2 * kx + 1))
        buckets[:, kx] = terms[:, 0]
        buckets[:, kx + 1:] += tu[:, 1:]
        buckets[:, : kx][:, ::-1] += td[:, 1:]
        # offset o collects the middle strata of every radius k >= |o| + 2
        # of o's parity: suffix sums per parity class (index kx + 1 is 0)
        suffix = np.zeros((len(ts), kx + 2))
        for p in (0, 1):
            suffix[:, p: kx + 1: 2] = np.cumsum(tm[:, p::2][:, ::-1], axis=1)[:, ::-1]
        buckets += suffix[:, from_k]
        offsets[kind] = buckets

    # slack from the finite stencil row: the top-of-row truncation decays
    # by q^(-1/2) per index walking down
    damp = np.exp(-0.5 * np.maximum(k_stop[:, None] - ks, 0.0) * params.log_q)
    slack = np.exp(weight.log_at(ks)) * (ks + 1.0) * eps_top[:, None] * damp
    _check_finite(np.sum(slack, axis=-1) + tail, at, weight)

    # sums run over each row's own k = 0..k_stop, so they match a scan of
    # that time alone bitwise; the comparable part is the equal pair plus
    # the rising strata, which gradY reads with its mirrored stencil
    out = []
    for i, k in enumerate(k_stop.tolist()):
        totals = {kind: float(np.sum(v[i, : k + 1])) for kind, v in per_k.items()}
        comparable = {kind: float(per_k[kind][i, 0] + np.sum(rising[kind][i, 1: k + 1]))
                      for kind in ("gradX", "gradY")}
        out.append(ScanResult(
            t=float(ts[i]), k_stop=k, totals=totals,
            offsets={kind: v[i, kx - k: kx + k + 1] for kind, v in offsets.items()},
            per_k={kind: v[i, : k + 1] for kind, v in per_k.items()},
            grad_split={kind: (c, totals[kind] - c) for kind, c in comparable.items()},
            tail=float(tail[i]), row_slack=float(4.0 * np.sum(slack[i, : k + 1]))))
    return out


def scan_many(params: TreeParams, ts, weight=None, tol: float = DEFAULT_TOL,
              signed: bool = False) -> list[ScanResult]:
    """One pass over sphere strata for all four kernel kinds, per time in ts.

    All times share numpy passes: the a priori cut fixes each k_stop, and
    one heat_z row block, sized for the largest, serves the jhat rows and
    their truncation bound. ``signed=True`` drops the absolute values (used
    for the mass cancellation identities); the tail bound is unchanged since
    it majorizes term magnitudes.
    """
    ts = np.asarray(ts, dtype=float).reshape(-1)
    check_time(ts)
    if weight is None:
        weight = ExpWeight(0.0)
    if not len(ts):
        return []
    k_stop, tail = _cut(ts, weight, tol)
    hz = heat_z_rows(ts, row_top(int(k_stop.max()) + 2, params, tol * 1e-3) + 2)
    return _finish_scans(params, ts, weight, tol, signed, hz, k_stop, tail)


def scan(params: TreeParams, t: float, weight=None, tol: float = DEFAULT_TOL,
         signed: bool = False) -> ScanResult:
    """One pass over sphere strata at time t: the one-time view of
    :func:`scan_many`."""
    return scan_many(params, [t], weight, tol, signed)[0]


def weighted_sum(spec: SumSpec, params: TreeParams, tol: float = DEFAULT_TOL) -> float:
    """Value of one weighted sum; see :class:`SumSpec` for the variants."""
    res = scan(params, spec.t, ExpWeight(spec.eps / math.sqrt(spec.t)), tol)
    if spec.offset is None:
        return res.totals[spec.kind]
    return res.offset_value(spec.kind, spec.offset)


def split_gradient_sum(t: float, eps: float, params: TreeParams,
                       tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """First-slot gradient sum split into the comparable and the rest.

    The comparable part runs over the moving vertices lying at or above
    the base vertex; it carries the improved single-power sphere weight
    and decays like 1/sqrt(t) on its own.
    """
    res = scan(params, t, ExpWeight(eps / math.sqrt(t)), tol)
    return res.grad_split["gradX"]


def horocycle_profile(kind: str, t: float, eps: float, params: TreeParams,
                      tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray, float]:
    """Level-restricted sums for every offset inside the certified window.

    Returns (offsets, values, tail). Offsets outside the window contribute
    less than the returned tail, because a restricted sum at offset o only
    collects strata with radius k >= |o|.
    """
    res = scan(params, t, ExpWeight(eps / math.sqrt(t)), tol)
    offs = np.arange(-res.k_stop, res.k_stop + 1)
    return offs, res.offsets[kind], res.tail + res.row_slack


def horocycle_sup(kind: str, t: float, eps: float, params: TreeParams,
                  tol: float = DEFAULT_TOL) -> tuple[float, int]:
    """sup over level offsets of the restricted sum, with its argmax."""
    offs, vals, _ = horocycle_profile(kind, t, eps, params, tol)
    i = int(np.argmax(vals))
    return float(vals[i]), int(offs[i])


@dataclass
class FitResult:
    slope: float
    constant: float
    spread: float


def fit_decay(ts, values, claimed_power: float) -> FitResult:
    """Least-squares slope of log(value) against log(t), plus the empirical
    constant max(value * t^claimed_power) and its spread over the grid."""
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(ts) < 4:
        raise ValueError("need at least 4 grid points in t")
    if np.any(values <= 0):
        raise ValueError("decay fit needs positive values")
    slope = float(np.polyfit(np.log(ts), np.log(values), 1)[0])
    scaled = values * np.power(ts, claimed_power)
    return FitResult(slope=slope, constant=float(np.max(scaled)),
                     spread=float(np.max(scaled) / np.min(scaled)))


def q_uniformity(kind: str, eps: float, t_grid, q_set,
                 tol: float = DEFAULT_TOL, restricted: bool = False) -> tuple[float, dict[int, float]]:
    """Spread of the empirical constants across branching numbers.

    The constant per q is the :func:`sweep` maximum over the t grid of
    value * t^power, with the claimed power of the kind (plus 1/2 when
    level-restricted). Returns (max/min spread, per-q constants).
    """
    restriction = "horocycle" if restricted else "none"
    consts: dict[int, float] = {}
    for c in sweep(q_set, t_grid, [eps], tol, restricted).cells:
        if (c.kind, c.restriction) == (kind, restriction):
            consts[c.q] = max(consts.get(c.q, 0.0), c.value_times_power)
    return max(consts.values()) / min(consts.values()), consts


@dataclass
class SweepCell:
    q: int
    t: float
    eps: float
    kind: str
    restriction: str
    value: float
    tail_bound: float
    k_stop: int
    value_times_power: float


@dataclass
class SweepReport:
    """Grid of weighted-sum values with fitted exponents and constants."""

    cells: list[SweepCell] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def rows(self) -> list[tuple]:
        return [(c.q, c.t, c.eps, c.kind, c.restriction, c.value,
                 c.tail_bound, c.k_stop, c.value_times_power) for c in self.cells]

    COLUMNS = ("q", "t", "epsilon", "kind", "restriction", "value",
               "tail_bound", "k_stop", "value_times_power")


def sweep(q_list, t_grid, eps_list, tol: float = DEFAULT_TOL,
          restricted: bool = True, jobs: int = 1) -> SweepReport:
    """Evaluate all four sums (and their restricted sups) over a grid.

    One scan per (q, t, eps) covers every kind. Cells are independent and
    may be dispatched to ``jobs`` worker threads; assembly order is the
    sorted grid order regardless of completion order. The summary
    carries, per kind and restriction, the pooled fitted exponent over
    all series, the empirical constant, the worst per-series spread of
    value * t^power, and the spread of constants across q.
    """
    keys = [(q, eps, t) for q in q_list for eps in eps_list for t in t_grid]

    def compute(key):
        q, eps, t = key
        return key, scan(TreeParams(q), t, ExpWeight(eps / math.sqrt(t)), tol)

    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            scans = dict(pool.map(compute, keys))
    else:
        scans = dict(map(compute, keys))

    report = SweepReport()
    restrictions = ("none", "horocycle") if restricted else ("none",)
    # (kind, restriction) -> (q, eps) -> [(t, value)], in summary order
    series: dict[tuple, dict] = {(kind, r): {} for r in restrictions for kind in KINDS}
    for key in keys:
        q, eps, t = key
        res = scans[key]
        for kind in KINDS:
            for r in restrictions:
                value = res.totals[kind] if r == "none" else float(np.max(res.offsets[kind]))
                power = CLAIMED_POWERS[kind] + (0.5 if r == "horocycle" else 0.0)
                report.cells.append(SweepCell(q, t, eps, kind, r, value, res.tail + res.row_slack,
                                              res.k_stop, value * t**power))
                series[(kind, r)].setdefault((q, eps), []).append((t, value))

    for (kind, r), by_series in series.items():
        power = CLAIMED_POWERS[kind] + (0.5 if r == "horocycle" else 0.0)
        fits = {key: fit_decay(*zip(*pts), power) for key, pts in by_series.items()}
        pooled = fit_decay(*zip(*(p for pts in by_series.values() for p in pts)), power)
        by_q: dict[int, float] = {}
        for (q, _), fit in fits.items():
            by_q[q] = max(by_q.get(q, 0.0), fit.constant)
        report.summary[f"{kind}/{r}"] = {
            "claimed_power": power,
            "fitted_exponent": pooled.slope,
            "per_series_exponents": [fit.slope for fit in fits.values()],
            "empirical_constant": max(fit.constant for fit in fits.values()),
            "max_series_spread": max(fit.spread for fit in fits.values()),
            "q_spread": max(by_q.values()) / min(by_q.values()) if len(by_q) > 1 else 1.0,
        }
    return report
