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

Tail certification uses three elementary facts, each also exercised by
the test suite: the line kernel is non-increasing in the space variable,
its one-step ratios are non-increasing (so an observed ratio bounds all
later ones), and they are at most t / (2(n+1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .heat import STENCILS, jhat_row, jhat_row_tail, scaled_stencils
from .tree import Rel, TreeParams
from .zline import check_time, heat_z_row

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
    """Everything one stratum pass produces. Offsets index ``o + k_stop``."""

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


def _stop_index(t: float, weight, log_hz: np.ndarray, hz: np.ndarray,
                cap: int, tol: float) -> tuple[int, float] | None:
    """First k whose certified tail falls below tol/2, or None within cap."""
    ks = np.arange(cap + 1, dtype=float)
    with np.errstate(divide="ignore"):
        log_m = (math.log(16.0 / t) + weight.log_at(ks)
                 + np.log((ks + 1.0) * (ks + 4.0)))
    log_m[1:] += log_hz[: cap]  # hz at k-1
    k_idx = np.arange(1, cap + 1)
    prev = hz[: cap]
    with np.errstate(divide="ignore", invalid="ignore"):
        r_obs = np.where(prev > 0.0, hz[1: cap + 1] / np.where(prev > 0, prev, 1.0), 0.0)
    rho = (weight.ratio_bound(k_idx)
           * ((k_idx + 2.0) * (k_idx + 5.0)) / ((k_idx + 1.0) * (k_idx + 4.0))
           * np.minimum(r_obs, t / (2.0 * k_idx)))
    with np.errstate(over="ignore"):
        tails = np.where(rho < 0.95, np.exp(log_m[1:]) * rho / (1.0 - rho), np.inf)
    good = (tails < 0.5 * tol) & (k_idx >= 8)
    if not np.any(good):
        return None
    i = int(np.argmax(good))
    return int(k_idx[i]), float(tails[i])


def scan(params: TreeParams, t: float, weight=None, tol: float = DEFAULT_TOL,
         signed: bool = False) -> ScanResult:
    """One pass over sphere strata for all four kernel kinds at time t.

    ``signed=True`` drops the absolute values (used for the mass
    cancellation identities); the tail bound is unchanged since it
    majorizes term magnitudes.
    """
    check_time(t)
    if weight is None:
        weight = ExpWeight(0.0)
    q = params.q
    cap = int(32 + 10.0 * math.sqrt(t + 1.0) + 40)
    while True:
        hz = heat_z_row(t, cap + 2)
        with np.errstate(divide="ignore"):
            log_hz = np.log(hz)
        found = _stop_index(t, weight, log_hz, hz, cap, tol)
        if found is not None:
            k_stop, tail = found
            break
        cap = 2 * cap + 32
        if cap > 4_000_000:  # pragma: no cover
            raise RuntimeError("stratum scan failed to certify a tail")

    jhat = jhat_row(t, k_stop + 2, params, tol * 1e-3)
    mag = (lambda a: a) if signed else np.abs
    st = {key: mag(a[: k_stop + 1]) for key, a in scaled_stencils(jhat, params).items()}
    ks = np.arange(k_stop + 1, dtype=float)
    w = np.exp(weight.log_at(ks))
    cmid = (q - 1.0) / q
    nmid = np.maximum(ks - 1.0, 0.0)  # number of middle strata at radius k

    def stencils(rel: Rel) -> dict[str, np.ndarray]:
        # the four kinds for x on a stratum of relation rel to the base y
        return dict(zip(KINDS, (st["h"], *(st[key] for key in STENCILS[rel]))))

    # per-stratum-class contributions; index 0 is overwritten by the
    # single equal-pair stratum below
    up, down = stencils(Rel.ANCESTOR), stencils(Rel.DESCENDANT)
    mid = {kind: cmid * a for kind, a in stencils(Rel.INCOMPARABLE).items()}
    eq = {kind: a[0] for kind, a in stencils(Rel.EQUAL).items()}

    from_k = np.minimum(np.abs(np.arange(-k_stop, k_stop + 1)) + 2, k_stop + 1)

    totals: dict[str, float] = {}
    offsets: dict[str, np.ndarray] = {}
    per_k: dict[str, np.ndarray] = {}
    grad_split: dict[str, tuple[float, float]] = {}
    for kind in KINDS:
        tu, td, tm = w * up[kind], w * down[kind], w * mid[kind]
        tu[0] = td[0] = tm[0] = 0.0
        terms = tu + td + nmid * tm
        terms[0] = eq[kind]
        totals[kind] = float(np.sum(terms))
        per_k[kind] = terms
        buckets = np.zeros(2 * k_stop + 1)
        buckets[k_stop] = eq[kind]
        buckets[k_stop + 1:] += tu[1:]
        buckets[: k_stop][::-1] += td[1:]
        # offset o collects the middle strata of every radius k >= |o| + 2
        # of o's parity: suffix sums per parity class (index k_stop + 1 is 0)
        suffix = np.zeros(k_stop + 2)
        for p in (0, 1):
            suffix[p: k_stop + 1: 2] = np.cumsum(tm[p::2][::-1])[::-1]
        buckets += suffix[from_k]
        offsets[kind] = buckets
        if kind in ("gradX", "gradY"):
            # comparable part: the rising strata for gradX, mirrored for
            # gradY; equal pairs belong to the comparable part
            comparable = float(eq[kind] + np.sum(tu[1:]))
            grad_split[kind] = (comparable, totals[kind] - comparable)

    # slack from the finite stencil row: the top-of-row truncation decays
    # by q^(-1/2) per index walking down
    eps_top = jhat_row_tail(t, k_stop + 2, params, tol * 1e-3)
    damp = np.exp(-0.5 * (k_stop + 2 - (ks + 2)) * params.log_q)
    row_slack = float(4.0 * np.sum(w * (ks + 1.0) * eps_top * damp))

    return ScanResult(t=t, k_stop=k_stop, totals=totals, offsets=offsets,
                      per_k=per_k, grad_split=grad_split, tail=tail,
                      row_slack=row_slack)


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

    The constant per q is max over the t grid of value * t^power, with the
    claimed power of the kind (plus 1/2 when level-restricted). Returns
    (max/min spread, per-q constants).
    """
    power = CLAIMED_POWERS[kind] + (0.5 if restricted else 0.0)
    consts: dict[int, float] = {}
    for q in q_set:
        params = TreeParams(q)
        vals = []
        for t in t_grid:
            if restricted:
                v, _ = horocycle_sup(kind, t, eps, params, tol)
            else:
                v = weighted_sum(SumSpec(kind, t, eps), params, tol)
            vals.append(v)
        consts[q] = float(np.max(np.asarray(vals) * np.power(t_grid, power)))
    spread = max(consts.values()) / min(consts.values())
    return spread, consts


@dataclass
class SweepCell:
    q: int
    t: float
    eps: float
    kind: str
    restriction: str
    value: float
    tail_bound: float
    value_times_power: float


@dataclass
class SweepReport:
    """Grid of weighted-sum values with fitted exponents and constants."""

    cells: list[SweepCell] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def rows(self) -> list[tuple]:
        return [(c.q, c.t, c.eps, c.kind, c.restriction, c.value,
                 c.tail_bound, c.value_times_power) for c in self.cells]

    COLUMNS = ("q", "t", "epsilon", "kind", "restriction", "value",
               "tail_bound", "value_times_power")


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
    series: dict[tuple, list[tuple[float, float, float]]] = {}
    for q in q_list:
        for eps in eps_list:
            for t in t_grid:
                res = scans[(q, eps, t)]
                bound = res.tail + res.row_slack
                for kind in KINDS:
                    value = res.totals[kind]
                    power = CLAIMED_POWERS[kind]
                    report.cells.append(SweepCell(q, t, eps, kind, "none", value,
                                                  bound, value * t**power))
                    series.setdefault((kind, "none", q, eps), []).append((t, value, bound))
                    if restricted:
                        rvalue = float(np.max(res.offsets[kind]))
                        rpower = power + 0.5
                        report.cells.append(SweepCell(q, t, eps, kind, "horocycle",
                                                      rvalue, bound, rvalue * t**rpower))
                        series.setdefault((kind, "horocycle", q, eps), []).append((t, rvalue, bound))

    restrictions = ("none", "horocycle") if restricted else ("none",)
    for restriction in restrictions:
        extra = 0.5 if restriction == "horocycle" else 0.0
        for kind in KINDS:
            slopes, spreads, consts = [], [], {}
            pooled_t, pooled_v = [], []
            power = CLAIMED_POWERS[kind] + extra
            for (k_, r_, q, eps), pts in series.items():
                if k_ != kind or r_ != restriction:
                    continue
                ts = np.array([p[0] for p in pts])
                vs = np.array([p[1] for p in pts])
                fit = fit_decay(ts, vs, power)
                slopes.append(fit.slope)
                spreads.append(fit.spread)
                consts[(q, eps)] = fit.constant
                pooled_t.extend(ts)
                pooled_v.extend(vs)
            pooled = fit_decay(pooled_t, pooled_v, power)
            by_q: dict[int, float] = {}
            for (q, eps), c in consts.items():
                by_q[q] = max(by_q.get(q, 0.0), c)
            q_spread = max(by_q.values()) / min(by_q.values()) if len(by_q) > 1 else 1.0
            report.summary[f"{kind}/{restriction}"] = {
                "claimed_power": power,
                "fitted_exponent": pooled.slope,
                "per_series_exponents": slopes,
                "empirical_constant": max(consts.values()),
                "max_series_spread": max(spreads),
                "q_spread": q_spread,
            }
    return report
