"""Flow heat kernel on the tree and its first and mixed flow gradients.

The kernel at time t between vertices at distance d with level sum s
factors as q^(-s/2) J(t, d), where

    J(t, d) = (2/t) sum_{k>=0} q^(-(d+2k)/2) (d+2k+1) heat_z(t, d+2k+1).

There is one layout: the scaled row jhat(d) = q^(d/2) J(t, d) over all
d at once, which stays bounded for any radius and removes over/underflow
from the stratum sums entirely. Gradients are exact one- and four-point
distance stencils on that row (:func:`scaled_stencils`, chosen per order
relation by :data:`STENCILS`); no finite differencing is involved.
Scalar queries, stratum sums and Riesz rows all read this one table.

The series :func:`j_value` and :func:`combinatorial_kernel` (the
counting-measure kernel, which after rescaling time and conjugating by
the measure reproduces the flow kernel) are kept as independent oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .tree import Rel, TreeParams, Vertex, distance, level, relation
from .zline import heat_z, heat_z_row

DEFAULT_TOL = 1e-12


def check_pair(d: int, s: int, rel: Rel) -> None:
    """Raise ValueError unless (d, s, rel) can describe a pair of vertices."""
    if d < 0:
        raise ValueError("distance must be >= 0")
    if (s - d) % 2 != 0:
        raise ValueError(f"level sum {s} and distance {d} have different parity")
    if rel is Rel.EQUAL and d != 0:
        raise ValueError("equal vertices sit at distance 0")
    if rel in (Rel.ANCESTOR, Rel.DESCENDANT) and d < 1:
        raise ValueError("strictly comparable vertices sit at distance >= 1")
    if rel is Rel.INCOMPARABLE and d < 2:
        raise ValueError("incomparable vertices sit at distance >= 2")


@dataclass(frozen=True)
class KernelQuery:
    """Minimal data determining the kernel: time, distance, level sum, relation.

    The relation pins the geometry of the pair: equal vertices force
    d = 0, strictly comparable pairs force d >= 1, incomparable pairs
    force d >= 2. The level sum always has the parity of the distance.
    """

    t: float
    d: int
    s: int
    rel: Rel

    def __post_init__(self) -> None:
        if self.t <= 0:
            raise ValueError(f"time must be positive, got {self.t}")
        check_pair(self.d, self.s, self.rel)

    @classmethod
    def from_vertices(cls, t: float, x: Vertex, y: Vertex) -> "KernelQuery":
        return cls(t, distance(x, y), level(x) + level(y), relation(x, y))


def j_value(t: float, d: int, params: TreeParams, tol: float = DEFAULT_TOL,
            rtol: float = 1e-12) -> float:
    """Scalar J(t, d) by the positive series (oracle for :func:`jhat_row`).

    Stops when the certified tail is below ``tol`` absolutely and ``rtol``
    relative to the accumulated value. Term ratios are bounded by
    (d+2k+3) / (q (d+2k+1)), which is below 5/(3q) < 1 from the second
    term on, so the tail after each term is certified geometric.
    """
    if t <= 0:
        raise ValueError(f"time must be positive, got {t}")
    if d < 0:
        raise ValueError("distance must be >= 0")
    q = params.q
    total = 0.0
    k = 0
    while True:
        m = d + 2 * k
        term = (2.0 / t) * math.exp(-0.5 * m * params.log_q) * (m + 1) * heat_z(t, m + 1, tol)
        total += term
        ratio = (m + 3) / (q * (m + 1))
        if k >= 1 and ratio < 1.0:
            tail = term * ratio / (1.0 - ratio)
            if tail < tol and tail <= rtol * total:
                return total
        k += 1
        if k > 1_000_000:  # pragma: no cover
            raise RuntimeError("series failed to terminate")


def _row_margin(params: TreeParams, tol: float) -> int:
    # extra entries so the top-of-row truncation, which propagates down
    # damped by 1/q per two indices, stays far below tol
    return 2 * int(math.ceil((math.log(1.0 / tol) + 25.0) / params.log_q)) + 12


@lru_cache(maxsize=256)
def _jhat_row_cached(t: float, dmax: int, q: int, tol: float) -> np.ndarray:
    params = TreeParams(q)
    margin = _row_margin(params, tol)
    top = dmax + margin + 2
    hz = heat_z_row(t, top + 2)
    v = (np.arange(top + 1) + 1.0) * hz[1: top + 2]
    s = np.empty(top + 1)
    s[top] = v[top]
    s[top - 1] = v[top - 1]
    for m in range(top - 2, -1, -1):
        s[m] = v[m] + s[m + 2] / q
    row = (2.0 / t) * s[: dmax + 1]
    row.setflags(write=False)
    return row


def jhat_row(t: float, dmax: int, params: TreeParams, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Scaled row q^(d/2) J(t, d) for d = 0..dmax (read-only)."""
    if t <= 0:
        raise ValueError(f"time must be positive, got {t}")
    return _jhat_row_cached(float(t), int(dmax), params.q, float(tol))


def jhat_row_tail(t: float, dmax: int, params: TreeParams, tol: float = DEFAULT_TOL) -> float:
    """Bound on the absolute truncation error of the top entry of jhat_row.

    Lower entries inherit the same bound damped by q^(-(dmax - d)/2).
    """
    margin = _row_margin(params, tol)
    top = dmax + margin + 2
    hz = heat_z_row(t, top + 4)
    v_top = (top + 1) * hz[top + 1]
    ratio = (top + 3) / (params.q * (top + 1))
    return (2.0 / t) * v_top * ratio / max(1.0 - ratio, 1e-9)


def j_row(t: float, dmax: int, params: TreeParams, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Unscaled row J(t, d), d = 0..dmax. Intended for moderate dmax."""
    scale = np.exp(-0.5 * np.arange(dmax + 1) * params.log_q)
    return jhat_row(t, dmax, params, tol) * scale


def combinatorial_kernel(t: float, d: int, params: TreeParams,
                         tol: float = DEFAULT_TOL) -> float:
    """Heat kernel of the neighbour-average Laplacian, counting measure.

    Own series, used as a cross-check oracle: with b the spectral bottom,
    q^(-s/2) e^(bt/(1-b)) combinatorial_kernel(t/(1-b), d) equals the flow
    kernel.
    """
    if t <= 0:
        raise ValueError(f"time must be positive, got {t}")
    if d < 0:
        raise ValueError("distance must be >= 0")
    q, b = params.q, params.b
    pref = 2.0 * math.exp(-b * t) / ((1.0 - b) * t)
    total = 0.0
    k = 0
    while True:
        term = (q ** -k) * (d + 2 * k + 1) * heat_z(t * (1.0 - b), d + 2 * k + 1, tol)
        total += term
        ratio = (d + 2 * k + 3) / (q * (d + 2 * k + 1))
        if k >= 1 and ratio < 1.0 and term * ratio / (1.0 - ratio) < tol / max(pref, 1.0):
            return pref * total * math.exp(-0.5 * d * params.log_q)
        k += 1
        if k > 1_000_000:  # pragma: no cover
            raise RuntimeError("series failed to terminate")


# ---------------------------------------------------------------------------
# scaled stencils q^(k/2) x (reduced kernel at distance k), rows and points
# ---------------------------------------------------------------------------

def scaled_stencils(jhat: np.ndarray, params: TreeParams) -> dict[str, np.ndarray]:
    """All scaled kernel stencils on a jhat row of length kmax + 2.

    Returns arrays indexed by k = 0..kmax (entries below their minimal k
    are zero):

    ===========  =============================================  ==========
    key          scaled value at distance k                     valid k
    ===========  =============================================  ==========
    ``h``        jhat(k)                                        k >= 0
    ``g_up``     jhat(k) - jhat(k+1)/q                          k >= 0
    ``g_side``   jhat(k) - jhat(k-1)                            k >= 1
    ``xy_ud``    (1+1/q) jhat(k) - jhat(k+1)/q - jhat(k-1)      k >= 1
    ``xy_mid``   jhat(k) - 2 jhat(k-1) + jhat(k-2)              k >= 2
    ``xy_eq``    (1+1/q) jhat(0) - 2 jhat(1)/q                  k = 0 only
    ===========  =============================================  ==========

    ``g_up`` applies when the moving predecessor leaves the base vertex
    below (comparable pairs, rising stratum); ``g_side`` covers every
    other stratum. The ``xy`` variants are the four-point mixed stencils
    for comparable and incomparable pairs respectively.
    """
    q = params.q
    kmax = len(jhat) - 2
    h = jhat[: kmax + 1]
    g_up = h - jhat[1: kmax + 2] / q
    g_side = np.zeros(kmax + 1)
    g_side[1:] = h[1:] - h[:-1]
    xy_ud = np.zeros(kmax + 1)
    xy_ud[1:] = (1.0 + 1.0 / q) * h[1:] - jhat[2: kmax + 2] / q - h[:-1]
    xy_mid = np.zeros(kmax + 1)
    if kmax >= 2:
        xy_mid[2:] = h[2:] - 2.0 * h[1:-1] + h[:-2]
    xy_eq = (1.0 + 1.0 / q) * jhat[0] - 2.0 * jhat[1] / q
    return {"h": h, "g_up": g_up, "g_side": g_side,
            "xy_ud": xy_ud, "xy_mid": xy_mid, "xy_eq": np.array([xy_eq])}


#: order relation of (x, y) -> scaled stencil of (grad_x, grad_y, grad_xy).
#: The predecessor of x moves away from y (``g_up``) when y lies at or
#: below x and toward y (``g_side``) otherwise; grad_y mirrors this.
STENCILS = {
    Rel.EQUAL: ("g_up", "g_up", "xy_eq"),
    Rel.ANCESTOR: ("g_up", "g_side", "xy_ud"),
    Rel.DESCENDANT: ("g_side", "g_up", "xy_ud"),
    Rel.INCOMPARABLE: ("g_side", "g_side", "xy_mid"),
}


def _point_value(query: KernelQuery, key: str, params: TreeParams, tol: float) -> float:
    # one row of length d+3 serves the kernel and all three gradients
    st = scaled_stencils(jhat_row(query.t, query.d + 2, params, tol), params)
    return math.exp(-0.5 * (query.s + query.d) * params.log_q) * float(st[key][query.d])


def kernel(query: KernelQuery, params: TreeParams, tol: float = DEFAULT_TOL) -> float:
    """Flow heat kernel value q^(-s/2) J(t, d)."""
    return _point_value(query, "h", params, tol)


def grad_x(query: KernelQuery, params: TreeParams, tol: float = DEFAULT_TOL) -> float:
    """First-slot flow gradient: kernel at (x, y) minus at (predecessor(x), y).

    Exact stencil: when y <= x the predecessor moves away from y, giving
    J(d) - q^(-1/2) J(d+1); otherwise it moves toward y, giving
    J(d) - q^(-1/2) J(d-1). The level-sum factor q^(-s/2) is common.
    """
    return _point_value(query, STENCILS[query.rel][0], params, tol)


def grad_y(query: KernelQuery, params: TreeParams, tol: float = DEFAULT_TOL) -> float:
    """Second-slot gradient; the kernel is symmetric, so the stencil mirrors
    with the roles of the two vertices reversed (case split on x <= y)."""
    return _point_value(query, STENCILS[query.rel][1], params, tol)


def grad_xy(query: KernelQuery, params: TreeParams, tol: float = DEFAULT_TOL) -> float:
    """Mixed gradient by the exact four-point stencil.

    The displaced points (predecessor(x), y), (x, predecessor(y)) and
    (predecessor(x), predecessor(y)) sit at distances fixed by the
    relation: d+1, d+1, d for equal vertices, d+1, d-1, d (or d-1, d+1,
    d) for comparable ones and d-1, d-1, d-2 for incomparable ones; level
    sums shift by +1, +1, +2.
    """
    return _point_value(query, STENCILS[query.rel][2], params, tol)
