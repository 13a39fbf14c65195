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

The time axis is a batch axis: :func:`jhat_rows` computes the rows of a
whole vector of times from one block of line-kernel rows
(:func:`jhat_from_z_rows`, which the stratum scan feeds directly),
summing the back-recursion by recursive doubling in about log2 of the
row length vector adds. :func:`jhat_row` and :func:`jhat_row_tail` are
one-time views of that core.

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
from .zline import check_time, heat_z, heat_z_rows

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
        check_time(self.t)
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
    check_time(t)
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


def row_top(dmax: int, params: TreeParams, tol: float) -> int:
    """Last index of the back-recursion behind a jhat row up to dmax.

    The entries past dmax + 2 keep the top-of-row truncation, which
    propagates down damped by 1/q per two indices, far below tol.
    """
    return dmax + 2 * int(math.ceil((math.log(1.0 / tol) + 25.0) / params.log_q)) + 14


def jhat_from_z_rows(ts: np.ndarray, hz: np.ndarray, dmax, params: TreeParams,
                    tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Scaled rows and their top-entry truncation bounds from line rows.

    ``hz`` holds one heat_z row per time in ``ts``, at least
    row_top(dmax) + 3 entries long; ``dmax`` is one int or one per time.
    Returns (rows, tails) with max(dmax) + 1 columns; each row is exact up
    to its own dmax and equals the row computed alone bitwise.
    """
    tops = np.broadcast_to(row_top(np.asarray(dmax), params, tol), ts.shape)
    width = int(tops.max()) + 1
    m = np.arange(width)
    # s[m] = v[m] + s[m+2]/q, truncated past each row's top, summed by
    # recursive doubling: after the step with shift k, s[m] holds the
    # terms v[m + 2j] q^(-j) for j < k, so log2(top) vector adds suffice
    s = np.where(m <= tops[:, None], (m + 1.0) * hz[:, 1: width + 1], 0.0)
    a, k = 1.0 / params.q, 2
    while k < width:
        s[:, :-k] += a * s[:, k:]
        a, k = a * a, 2 * k
    rows = (2.0 / ts[:, None]) * s[:, : int(np.max(dmax)) + 1]
    v_top = (tops + 1) * hz[np.arange(len(ts)), tops + 1]
    ratio = (tops + 3) / (params.q * (tops + 1))
    tails = (2.0 / ts) * v_top * ratio / np.maximum(1.0 - ratio, 1e-9)
    return rows, tails


def jhat_rows(ts, dmax: int, params: TreeParams, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Scaled rows q^(d/2) J(t, d) for d = 0..dmax, one row per time in ``ts``."""
    ts = np.asarray(ts, dtype=float).reshape(-1)
    hz = heat_z_rows(ts, row_top(dmax, params, tol) + 2)
    return jhat_from_z_rows(ts, hz, dmax, params, tol)[0]


@lru_cache(maxsize=256)
def _jhat_row_cached(t: float, dmax: int, q: int, tol: float) -> np.ndarray:
    row = jhat_rows([t], dmax, TreeParams(q), tol)[0]
    row.setflags(write=False)
    return row


def jhat_row(t: float, dmax: int, params: TreeParams, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Scaled row q^(d/2) J(t, d) for d = 0..dmax (read-only): the cached
    one-time view of :func:`jhat_rows`."""
    return _jhat_row_cached(float(t), int(dmax), params.q, float(tol))


def jhat_row_tail(t: float, dmax: int, params: TreeParams, tol: float = DEFAULT_TOL) -> float:
    """Bound on the absolute truncation error of the top entry of jhat_row.

    Lower entries inherit the same bound damped by q^(-(dmax - d)/2).
    """
    ts = np.array([t], dtype=float)
    hz = heat_z_rows(ts, row_top(dmax, params, tol) + 2)
    return float(jhat_from_z_rows(ts, hz, dmax, params, tol)[1][0])


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
    check_time(t)
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

    The row is the last axis, so a stack of rows (one per time) gives
    stacked stencils. Returns arrays indexed by k = 0..kmax on that axis
    (entries below their minimal k are zero; ``xy_eq`` has length 1):

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
    kmax = jhat.shape[-1] - 2
    h = jhat[..., : kmax + 1]
    g_up = h - jhat[..., 1: kmax + 2] / q
    g_side = np.zeros_like(h)
    g_side[..., 1:] = h[..., 1:] - h[..., :-1]
    xy_ud = np.zeros_like(h)
    xy_ud[..., 1:] = (1.0 + 1.0 / q) * h[..., 1:] - jhat[..., 2: kmax + 2] / q - h[..., :-1]
    xy_mid = np.zeros_like(h)
    if kmax >= 2:
        xy_mid[..., 2:] = h[..., 2:] - 2.0 * h[..., 1:-1] + h[..., :-2]
    xy_eq = (1.0 + 1.0 / q) * jhat[..., :1] - 2.0 * jhat[..., 1:2] / q
    return {"h": h, "g_up": g_up, "g_side": g_side,
            "xy_ud": xy_ud, "xy_mid": xy_mid, "xy_eq": xy_eq}


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
