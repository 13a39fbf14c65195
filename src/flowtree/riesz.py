"""Riesz transform kernel by quadrature and its dyadic decomposition.

The kernel is pi^(-1/2) times the integral over t in (0, inf) of
t^(-1/2) grad_x H_t, split into a small-time piece over (0, 1) and dyadic
blocks [2^n, 2^(n+1)]. Everything reads one integrated row per piece,
the integral of t^(-1/2) jhat(t, d) (the scaled row of :mod:`heat`), in
u = sqrt(t) by composite 16-point Gauss rules on doubling panels, one
:func:`heat.jhat_rows` call per panel. :func:`heat.scaled_stencils` is
linear, so the stencils of that row are the integrated stencils. Its
``g_up`` and ``g_side`` stencils times q^(-d/2) are the Riesz rows, one
for moving vertices at or above the base point and one for the rest.
Its absolute stencils summed over sphere strata (:func:`sums.stratum_terms`)
are the column sums, the time integral taken before the absolute value
as in the Calderon-Zygmund hypotheses, with an a priori bound for the
radii past the row added. Far blocks of :func:`kernel_rows` are cut once
an a priori bound falls below tolerance; that bound is in the error.

Rows are *reduced*: they hold the kernel without its level factor
q^(-s/2), s the level sum of the pair. :class:`KernelRows` and
:func:`kernel_rows` return reduced rows; :func:`riesz_kernel`,
:func:`riesz_kernel_with_error` and :func:`block_kernel_value` return
full kernel entries, the factor q^(-s/2) already applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import sums
from .heat import STENCILS, check_pair, jhat_rows, scaled_stencils
from .tree import Rel, TreeParams, Vertex, distance, level, pair_strata
from .zline import chernoff, heat_z_row

DEFAULT_TOL = 1e-9

#: dyadic scale constant and polynomial weight exponent under which the
#: kernel hypotheses are verified: blocks [2^n, 2^(n+1)] pair with the
#: scale c^n = 2^(-n/2)
CZ_SCALE = 2.0**-0.5
CZ_WEIGHT_EXPONENT = 2.0

#: piece index of t in (0, 1); pieces n >= 0 are the blocks
SMALL_TIME = -1

#: panels at which a quadrature that has not met its tolerance raises
MAX_PANELS = 256

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(16)


def _integrate_rows(f, a: float, b: float, tol: float) -> tuple[np.ndarray, float]:
    """Composite 16-point Gauss with panel doubling.

    f maps the 16 nodes of one panel, as an array, to one row per node;
    it is called once per panel. Returns (value, error estimate), the
    estimate being the difference of the last two refinements; raises
    RuntimeError if it still exceeds tol at :data:`MAX_PANELS` panels.
    """
    prev = None
    panels = 1
    while True:
        edges = np.linspace(a, b, panels + 1)
        total = None
        for i in range(panels):
            mid = 0.5 * (edges[i] + edges[i + 1])
            half = 0.5 * (edges[i + 1] - edges[i])
            part = (half * _GAUSS_W) @ f(mid + half * _GAUSS_X)
            total = part if total is None else total + part
        if prev is not None:
            err = float(np.max(np.abs(total - prev)))
            if err <= tol:
                return total, err
            if panels >= MAX_PANELS:
                raise RuntimeError(f"quadrature over [{a}, {b}] still moves by "
                                   f"{err:.3g} > {tol:.3g} at {panels} panels")
        prev = total
        panels *= 2


@lru_cache(maxsize=512)
def _integrated_row(q: int, n: int, width: int, tol: float) -> tuple[np.ndarray, float]:
    """pi^(-1/2) times the integral over piece n of t^(-1/2) jhat(t, d),
    d = 0..width+1 (read-only), as 2 jhat(u^2, d) over u = sqrt(t), and
    its quadrature error."""
    params = TreeParams(q)
    lo, hi = (0.0, 1.0) if n == SMALL_TIME else (2.0**(0.5 * n), 2.0**(0.5 * n + 0.5))
    row, err = _integrate_rows(lambda u: 2.0 * jhat_rows(u * u, width + 1, params, tol * 1e-2),
                               lo, hi, tol)
    row = row / math.sqrt(math.pi)
    row.setflags(write=False)
    return row, err / math.sqrt(math.pi)


def _riesz_rows(q: int, n: int, dmax: int, tol: float) -> tuple[np.ndarray, float]:
    """Reduced rows [up; side] of piece n and their quadrature error.

    up[d] applies when the base point is at or below the moving vertex,
    side[d] (d >= 1) otherwise; side[0] is zero and never read. A
    first-gradient stencil at most doubles the error of the row.
    """
    row, err = _integrated_row(q, n, dmax, tol)
    st = scaled_stencils(row, TreeParams(q))
    scale = np.exp(-0.5 * np.arange(dmax + 1) * math.log(q))
    return np.concatenate([st["g_up"] * scale, st["g_side"] * scale]), 2.0 * err


def _block_bound(n: int, dmax: int, params: TreeParams) -> np.ndarray:
    """A priori bound for the block-n integral of t^(-1/2)|gradient rows|.

    Uses |J(t, d)| <= (4/t)(d+3) q^(-d/2) hz(t, 0) and the monotonicity of
    hz(t, 0) in t, giving an integrand bound const(d) hz(2^n, 0) / t^(3/2)
    on the block; the constant absorbs both stencil branches.
    """
    d = np.arange(dmax + 1, dtype=float)
    t0 = 2.0**n
    hz0 = float(heat_z_row(t0, 2)[0])
    const = 8.0 * (d + 4.0) * np.exp(-0.5 * d * params.log_q) * (1.0 + params.q**-0.5)
    block_int = 2.0 * (t0**-0.5) * (1.0 - 2.0**-0.5)  # integral of t^(-3/2)
    return const * hz0 * block_int / math.sqrt(math.pi)


def _radius(n: int, weight, tol: float, min_radius: int) -> tuple[int, float]:
    """Smallest radius R >= max(min_radius, 1) past which piece n holds
    weighted column mass at most tol by an a priori bound, and that bound:
    the scan's term bound (:func:`sums._cut`) integrated over the piece, with
    the Chernoff bound at the block end (it grows with t) on a block and the
    power bound (t/2)^m / m! on (0, 1)."""
    lo = max(min_radius, 1) + 1
    cap = lo + 64 + int(10.0 * math.sqrt(2.0**(n + 1)))
    while True:
        ks = np.arange(lo, cap + 1, dtype=float)
        m = ks - 1.0
        if n == SMALL_TIME:  # t^(-3/2) (t/2)^m integrates to 2^(-m) / (m - 1/2)
            log_fact = np.array([math.lgamma(x) for x in m + 1.0])
            log_h = -m * math.log(2.0) - log_fact - np.log(m - 0.5)
            rho = 0.5 / ks
        else:  # t^(-3/2) integrates over the block to 2^(1-n/2) (1 - 2^(-1/2))
            log_c, rho = chernoff(2.0**(n + 1), m)
            log_h = math.log(2.0**(1.0 - 0.5 * n) * (1.0 - 2.0**-0.5)) + log_c
        poly = (ks + 1.0) * (ks + 4.0)
        log_b = log_h + np.log(16.0 / math.sqrt(math.pi) * poly) + weight.log_at(ks)
        rho = rho * weight.ratio_bound(ks) * (ks + 2.0) * (ks + 5.0) / poly
        beyond = sums.geometric_tail(log_b, rho)
        if np.any(beyond <= tol):
            i = int(np.argmax(beyond <= tol))
            return int(ks[i]) - 1, float(beyond[i])
        cap *= 2
        if cap > 4_000_000:  # pragma: no cover
            raise RuntimeError(f"no radius bounds the mass of piece {n} below {tol}")


@dataclass(frozen=True)
class RieszQuery:
    """Kernel query with the time integrated out: distance, level sum, relation."""

    d: int
    s: int
    rel: Rel

    def __post_init__(self) -> None:
        check_pair(self.d, self.s, self.rel)


@dataclass
class KernelRows:
    """Reduced Riesz rows: small-time piece, dyadic blocks, tail bound.

    Rows are stacked [up; side] of length 2 (dmax+1); multiply by
    q^(-s/2) to recover actual kernel entries.
    """

    dmax: int
    r0: np.ndarray
    blocks: list[np.ndarray]
    tail_bound: np.ndarray
    quad_error: float

    def total(self) -> np.ndarray:
        return sum(self.blocks, self.r0.copy())


@lru_cache(maxsize=64)
def _kernel_rows_cached(q: int, dmax: int, tol: float) -> KernelRows:
    params = TreeParams(q)
    inner = tol * 1e-2
    r0, quad_err = _riesz_rows(q, SMALL_TIME, dmax, inner)
    blocks: list[np.ndarray] = []
    while float(np.max(_block_bound(len(blocks), dmax, params))) >= tol:
        if len(blocks) > 64:  # pragma: no cover
            raise RuntimeError("dyadic decomposition failed to converge")
        rows, err = _riesz_rows(q, len(blocks), dmax, inner)
        blocks.append(rows)
        quad_err += err
    # the block bounds fall geometrically in the block index, ratio 1/2
    return KernelRows(dmax=dmax, r0=r0, blocks=blocks, quad_error=quad_err,
                      tail_bound=2.0 * _block_bound(len(blocks), dmax, params))


def kernel_rows(params: TreeParams, dmax: int, tol: float = DEFAULT_TOL) -> KernelRows:
    """Cached reduced rows of the Riesz kernel up to distance dmax.

    Entries lack the level factor q^(-s/2); see :class:`KernelRows`.
    """
    return _kernel_rows_cached(params.q, int(dmax), float(tol))


def _row_pick(rows: np.ndarray, dmax: int, d: int, rel: Rel) -> float:
    # the first-slot gradient stencil of the pair picks the up or side row
    if STENCILS[rel][0] == "g_up":
        return float(rows[d])
    return float(rows[dmax + 1 + d])


def riesz_kernel(query: RieszQuery, params: TreeParams,
                 tol: float = DEFAULT_TOL) -> float:
    """Riesz kernel entry; certified error at most the reported rows' tail."""
    return riesz_kernel_with_error(query, params, tol)[0]


def riesz_kernel_with_error(query: RieszQuery, params: TreeParams,
                            tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """Full kernel entry and its error bound, both times q^(-s/2)."""
    dmax = max(32, query.d + 2)
    rows = kernel_rows(params, dmax, tol)
    reduced = _row_pick(rows.total(), dmax, query.d, query.rel)
    pref = math.exp(-0.5 * query.s * params.log_q)
    err = float(rows.tail_bound[query.d]) + rows.quad_error
    return pref * reduced, pref * err


@dataclass(frozen=True)
class ColumnSum:
    """A column sum: ``value`` sums strata out to ``radius`` and adds the
    a priori mass beyond (``truncation``) and the quadrature slack; a
    signed value adds neither. ``quad_error`` is that of the row."""

    value: float
    radius: int
    truncation: float
    quad_error: float


def block_column_sum(n: int, kind: str, weight, params: TreeParams,
                     tol: float = DEFAULT_TOL, signed: bool = False,
                     min_radius: int = 0) -> ColumnSum:
    """sum_x |K(x, y)| w(d(x, y)) mu(x) over the tree for piece n of the
    Riesz kernel (``gradX``), its transpose (``gradY``) or its second-slot
    gradient (``gradXY``), from the integrated row out to the smallest
    radius >= min_radius past which the a priori mass is below tol/100.
    """
    radius, trunc = _radius(n, weight, tol * 1e-2, min_radius)
    row, err = _integrated_row(params.q, n, radius, tol)
    st = {key: a if signed else np.abs(a) for key, a in scaled_stencils(row, params).items()}
    total = float(np.sum(dict(sums.stratum_terms(st, weight, params, f"piece {n}"))[kind][0]))
    if signed:
        return ColumnSum(total, radius, trunc, err)
    # a stencil at most quadruples the row error; radius k holds strata
    # of total scaled weight at most k + 1
    ks = np.arange(radius + 1, dtype=float)
    slack = 4.0 * err * float(np.sum(np.exp(weight.log_at(ks)) * (ks + 1.0)))
    return ColumnSum(total + trunc + slack, radius, trunc, err)


def small_time_column_sums(params: TreeParams, tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """L1 column and row sums of the small-time kernel piece; the row sum
    is the transposed (``gradY``) column sum by kernel symmetry."""
    return tuple(block_column_sum(SMALL_TIME, kind, sums.ExpWeight(0.0), params, tol).value
                 for kind in ("gradX", "gradY"))


def small_time_signed_column_sum(params: TreeParams, tol: float = DEFAULT_TOL) -> float:
    """Signed column sum of the small-time piece; zero by mass conservation."""
    return block_column_sum(SMALL_TIME, "gradX", sums.ExpWeight(0.0), params, tol,
                            signed=True).value


def kn_weighted_sum(n: int, eps: float, params: TreeParams,
                    tol: float = DEFAULT_TOL, weight=None) -> float:
    """Upper bound for sum_x |K_n(x, y)| w(d(x, y)) mu(x), the time
    integral inside the absolute value (:func:`block_column_sum`).

    The default weight is exp(eps d / 2^(n/2)); pass a
    :class:`sums.PolyWeight` for the polynomial variant.
    """
    if n < 0:
        raise ValueError("block index must be >= 0")
    if weight is None:
        weight = sums.ExpWeight(eps * CZ_SCALE**n)
    return block_column_sum(n, "gradX", weight, params, tol).value


def kn_grad_sum(n: int, eps: float, params: TreeParams,
                tol: float = DEFAULT_TOL) -> float:
    """Weighted column sum of the second-slot gradient of the block kernel."""
    if n < 0:
        raise ValueError("block index must be >= 0")
    return block_column_sum(n, "gradXY", sums.ExpWeight(eps * CZ_SCALE**n), params, tol).value


def block_kernel_value(n: int, query: RieszQuery, params: TreeParams,
                       tol: float = DEFAULT_TOL, dmax: int | None = None) -> float:
    """Signed block-n kernel entry (the piece integrated over [2^n, 2^(n+1)]).

    A full entry: the reduced block row value times q^(-s/2).
    """
    dmax = max(32, query.d + 2) if dmax is None else dmax
    rows = _riesz_rows(params.q, n, dmax, tol)[0]
    pref = math.exp(-0.5 * query.s * params.log_q)
    return pref * _row_pick(rows, dmax, query.d, query.rel)


def lipschitz_check(n: int, y: Vertex, z: Vertex, params: TreeParams,
                    tol: float = DEFAULT_TOL, radius: int = 13) -> tuple[float, float]:
    """Column difference sum of the block kernel against its telescoped bound.

    lhs is sum_x |K_n(x, y) - K_n(x, z)| mu(x) over the radius ball around
    y, counted by :func:`tree.pair_strata`. The bound is d(y, z) times the
    whole-tree second-slot gradient column sum of the block; both read
    the same integrated row. For d(y, z) = 1 the two agree but for the
    mass outside the ball. Contract: lhs <= bound + tol.
    """
    dyz = distance(y, z)
    grad = block_column_sum(n, "gradXY", sums.ExpWeight(0.0), params, tol,
                            min_radius=radius + dyz + 2)
    dmax = grad.radius
    rows = _riesz_rows(params.q, n, dmax, tol)[0]
    ly, lz = level(y), level(z)
    lhs = 0.0
    for (dy, above_y, dz, above_z, lx), count in pair_strata(y, z, radius, params).items():
        ky = float(rows[dy]) if above_y else float(rows[dmax + 1 + dy])
        kz = float(rows[dz]) if above_z else float(rows[dmax + 1 + dz])
        vy = math.exp(-0.5 * (lx + ly) * params.log_q) * ky
        vz = math.exp(-0.5 * (lx + lz) * params.log_q) * kz
        lhs += count * abs(vy - vz) * math.exp(lx * params.log_q)
    return lhs, grad.value * dyz


def weak_type_probe(lambdas, ball_radius: int, params: TreeParams,
                    tol: float = DEFAULT_TOL, y: Vertex | None = None) -> float:
    """sup over the lambda grid of lambda * mu{ |R(., y)/.../| > lambda }.

    The input is the L1-normalized point mass at y, so the transform's
    values are plain kernel entries. Level sets are measured exactly on
    sphere strata out to the given radius; the base vertex is normalized
    to level zero, which by homogeneity leaves the full-range sup
    unchanged. The strata are those of :func:`tree.pair_strata`.
    """
    del y  # kernel entries depend on the base point only through its level
    dmax = max(32, ball_radius + 2)
    tot = np.abs(kernel_rows(params, dmax, tol).total())
    base = Vertex(ball_radius, (0,) * ball_radius)
    strata = pair_strata(base, base, ball_radius, params)
    d, above, _, _, lx = np.array(list(strata)).T
    # |R(x, base)| = q^(-level(x)/2) |row(d)|, the up row when x is at or above base
    value = np.exp(-0.5 * lx * params.log_q) * np.where(above, tot[d], tot[dmax + 1 + d])
    mass = np.array(list(strata.values()), dtype=float) * np.power(float(params.q), lx)
    lam = np.asarray(lambdas, dtype=float)
    return float(np.max(lam * ((value > lam[:, None]) @ mass), initial=0.0))
