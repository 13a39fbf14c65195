"""Riesz transform kernel by quadrature and its dyadic decomposition.

The kernel is pi^(-1/2) times the integral over t in (0, inf) of
t^(-1/2) grad_x H_t, split into a small-time piece over (0, 1) and dyadic
blocks [2^n, 2^(n+1)]. Each block is integrated by composite Gauss rules
on doubling subdivisions until two successive refinements agree below the
requested tolerance; the (0, 1) piece is integrated in u = sqrt(t), which
removes the endpoint singularity. Each integrand takes the 16 nodes of
one panel as an array, so a panel costs one call into the batched cores
:func:`sums.scan_many` and :func:`heat.jhat_rows`. Far blocks are cut
once an a priori bound (power decay of the integrand drawn from the
pointwise kernel bounds) falls below tolerance, and that bound is
carried as part of the reported error.

Because kernels depend only on distance, level sum and order relation,
whole kernel columns reduce to a pair of rows per block: one for moving
vertices at or above the base point, one for the rest. All column sums,
Lipschitz tests and the weak-type probe run off those rows.

Rows are *reduced*: they hold the kernel without its level factor
q^(-s/2), s the level sum of the pair. :class:`KernelRows`,
:func:`kernel_rows` and ``_block_rows_cached`` return reduced rows;
:func:`riesz_kernel`, :func:`riesz_kernel_with_error` and
:func:`block_kernel_value` return full kernel entries, the factor
q^(-s/2) already applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import sums
from .heat import STENCILS, check_pair, jhat_rows, scaled_stencils
from .tree import Rel, TreeParams, Vertex, distance, level, pair_strata
from .zline import heat_z_row

DEFAULT_TOL = 1e-9

#: dyadic scale constant and exponents under which the kernel hypotheses
#: are verified: blocks [2^n, 2^(n+1)] pair with the scale c^n = 2^(-n/2)
CZ_SCALE = 2.0**-0.5
CZ_WEIGHT_EXPONENT = 2.0
CZ_LIPSCHITZ_EXPONENT = 1.0

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(16)


def _integrate_rows(f, a: float, b: float, tol: float,
                    max_panels: int = 256) -> tuple[np.ndarray, float]:
    """Composite 16-point Gauss with panel doubling.

    f maps the 16 nodes of one panel, as an array, to one row per node;
    it is called once per panel. Returns (value, error estimate), the
    estimate being the difference of the last two refinements, capped at
    the requested tolerance by the doubling loop whenever the budget
    allows.
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
            if err <= tol or panels >= max_panels:
                return total, err
        prev = total
        panels *= 2


def _gradient_rows(ts: np.ndarray, dmax: int, params: TreeParams, tol: float) -> np.ndarray:
    """Reduced first-gradient stencils, stacked [up rows; side rows], one
    stack per time in ``ts``.

    The scaled ``g_up`` and ``g_side`` stencils of the jhat rows times
    q^(-d/2). up[d] applies when the base point is at or below the moving
    vertex, side[d] (d >= 1) otherwise; side[0] is zero and never read.
    """
    st = scaled_stencils(jhat_rows(ts, dmax + 1, params, tol), params)
    scale = np.exp(-0.5 * np.arange(dmax + 1) * params.log_q)
    return np.concatenate([st["g_up"] * scale, st["g_side"] * scale], axis=-1)


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
        out = self.r0.copy()
        for b in self.blocks:
            out += b
        return out


@lru_cache(maxsize=64)
def _kernel_rows_cached(q: int, dmax: int, tol: float) -> KernelRows:
    params = TreeParams(q)
    inner = tol * 1e-2
    quad_err = 0.0

    def small_time(u: np.ndarray) -> np.ndarray:
        return 2.0 * _gradient_rows(u * u, dmax, params, inner)

    r0, err = _integrate_rows(small_time, 0.0, 1.0, inner)
    r0 = r0 / math.sqrt(math.pi)
    quad_err += err

    blocks: list[np.ndarray] = []
    n = 0
    while True:
        bound = _block_bound(n, dmax, params)
        if float(np.max(bound)) < tol:
            tail = 2.0 * bound  # geometric in the block index, ratio 1/2
            break
        blk, err = _integrate_rows(
            lambda t: t[:, None]**-0.5 * _gradient_rows(t, dmax, params, inner),
            2.0**n, 2.0**(n + 1), inner)
        blocks.append(blk / math.sqrt(math.pi))
        quad_err += err
        n += 1
        if n > 64:  # pragma: no cover
            raise RuntimeError("dyadic decomposition failed to converge")
    return KernelRows(dmax=dmax, r0=r0, blocks=blocks, tail_bound=tail,
                      quad_error=quad_err)


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
    value, _ = riesz_kernel_with_error(query, params, tol)
    return value


def riesz_kernel_with_error(query: RieszQuery, params: TreeParams,
                            tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """Full kernel entry and its error bound, both times q^(-s/2)."""
    dmax = max(32, query.d + 2)
    rows = kernel_rows(params, dmax, tol)
    reduced = _row_pick(rows.total(), dmax, query.d, query.rel)
    pref = math.exp(-0.5 * query.s * params.log_q)
    err = float(rows.tail_bound[query.d]) + rows.quad_error
    return pref * reduced, pref * err


def small_time_column_sums(params: TreeParams, tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """L1 column and row sums of the small-time kernel piece.

    Both are integrals over (0, 1) of t^(-1/2) times a gradient column
    sum; the transposed sum equals the second-slot gradient sum by kernel
    symmetry. Finiteness comes from the integrable singularity times the
    mass bound.
    """
    inner = tol * 1e-2

    def integrand(u: np.ndarray) -> np.ndarray:
        scans = sums.scan_many(params, u * u, sums.ExpWeight(0.0), inner)
        return 2.0 * np.array([[r.totals["gradX"], r.totals["gradY"]] for r in scans])

    vals, _ = _integrate_rows(integrand, 0.0, 1.0, tol)
    return float(vals[0] / math.sqrt(math.pi)), float(vals[1] / math.sqrt(math.pi))


def small_time_signed_column_sum(params: TreeParams, tol: float = DEFAULT_TOL) -> float:
    """Signed column sum of the small-time piece; zero by mass conservation."""
    inner = tol * 1e-2

    def integrand(u: np.ndarray) -> np.ndarray:
        scans = sums.scan_many(params, u * u, sums.ExpWeight(0.0), inner, signed=True)
        return np.array([[2.0 * r.totals["gradX"]] for r in scans])

    vals, _ = _integrate_rows(integrand, 0.0, 1.0, tol)
    return float(vals[0] / math.sqrt(math.pi))


@lru_cache(maxsize=512)
def _block_scan_sum(q: int, n: int, kind: str, weight, tol: float) -> float:
    if n < 0:
        raise ValueError("block index must be >= 0")
    params = TreeParams(q)
    inner = tol * 1e-2

    def integrand(t: np.ndarray) -> np.ndarray:
        scans = sums.scan_many(params, t, weight, inner)
        return t[:, None]**-0.5 * np.array([[r.totals[kind]] for r in scans])

    vals, _ = _integrate_rows(integrand, 2.0**n, 2.0**(n + 1), tol)
    return float(vals[0] / math.sqrt(math.pi))


def kn_weighted_sum(n: int, eps: float, params: TreeParams,
                    tol: float = DEFAULT_TOL, weight=None) -> float:
    """Upper bound for the weighted column sum of the block-n kernel.

    The absolute value is taken inside the time integral (a certified
    upper bound wherever the integrand changes sign), then Fubini turns
    the sum into a block integral of the weighted gradient sum. The
    default weight is exp(eps d / 2^(n/2)); pass a :class:`sums.PolyWeight`
    for the polynomial variant.
    """
    if weight is None:
        weight = sums.ExpWeight(eps * CZ_SCALE**n)
    return _block_scan_sum(params.q, n, "gradX", weight, tol)


def kn_grad_sum(n: int, eps: float, params: TreeParams,
                tol: float = DEFAULT_TOL) -> float:
    """Weighted column sum of the second-slot gradient of the block kernel."""
    return _block_scan_sum(params.q, n, "gradXY", sums.ExpWeight(eps * CZ_SCALE**n), tol)


@lru_cache(maxsize=64)
def _block_rows_cached(q: int, n: int, dmax: int, tol: float) -> np.ndarray:
    """Reduced block-n rows, stacked [up; side]; multiply by q^(-s/2)."""
    params = TreeParams(q)
    rows, _ = _integrate_rows(
        lambda t: t[:, None]**-0.5 * _gradient_rows(t, dmax, params, tol * 1e-2),
        2.0**n, 2.0**(n + 1), tol)
    return rows / math.sqrt(math.pi)


def block_kernel_value(n: int, query: RieszQuery, params: TreeParams,
                       tol: float = DEFAULT_TOL, dmax: int | None = None) -> float:
    """Signed block-n kernel entry (the piece integrated over [2^n, 2^(n+1)]).

    A full entry: the reduced block row value times q^(-s/2).
    """
    dmax = max(32, query.d + 2) if dmax is None else dmax
    rows = _block_rows_cached(params.q, n, dmax, tol)
    pref = math.exp(-0.5 * query.s * params.log_q)
    return pref * _row_pick(rows, dmax, query.d, query.rel)


def kn_column_tail(n: int, k_min: int, params: TreeParams,
                   tol: float = DEFAULT_TOL) -> float:
    """Bound for the block-n weighted gradient column mass at distance >= k_min."""
    inner = tol * 1e-2

    def integrand(t: np.ndarray) -> np.ndarray:
        scans = sums.scan_many(params, t, sums.ExpWeight(0.0), inner)
        beyond = np.array([float(np.sum(r.per_k["gradX"][k_min:])) + r.tail + r.row_slack
                           for r in scans])
        return (t**-0.5 * beyond)[:, None]

    vals, err = _integrate_rows(integrand, 2.0**n, 2.0**(n + 1), tol, max_panels=4)
    return float(vals[0] / math.sqrt(math.pi)) + err


def lipschitz_check(n: int, y: Vertex, z: Vertex, params: TreeParams,
                    tol: float = DEFAULT_TOL, radius: int = 13) -> tuple[float, float]:
    """Column difference sum of the block kernel against its telescoped bound.

    lhs is sum_x |K_n(x, y) - K_n(x, z)| mu(x) over the radius ball around
    y, counted by :func:`tree.pair_strata`; :func:`kn_column_tail` bounds
    the omitted mass. The bound is d(y, z) times the second-slot gradient
    column sum of the block. Contract: lhs <= bound + tol.
    """
    dyz = distance(y, z)
    dmax = radius + dyz + 2
    rows = _block_rows_cached(params.q, n, dmax, tol)
    ly, lz = level(y), level(z)
    lhs = 0.0
    for (dy, above_y, dz, above_z, lx), count in pair_strata(y, z, radius, params).items():
        ky = float(rows[dy]) if above_y else float(rows[dmax + 1 + dy])
        kz = float(rows[dz]) if above_z else float(rows[dmax + 1 + dz])
        vy = math.exp(-0.5 * (lx + ly) * params.log_q) * ky
        vz = math.exp(-0.5 * (lx + lz) * params.log_q) * kz
        lhs += count * abs(vy - vz) * math.exp(lx * params.log_q)
    bound = kn_grad_sum(n, 0.0, params, tol) * dyz
    return lhs, bound


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
