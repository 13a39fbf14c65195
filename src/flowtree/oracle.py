"""Independent reference implementations: matrix models and a random walk.

Dense models assemble the combinatorial and flow Laplacians, the flow
gradient and its adjoint on a truncated ball, with Dirichlet rows at the
boundary. In the measure-orthonormalized basis the flow Laplacian is
I - A/(2 sqrt q) with A the plain adjacency, which makes it symmetric and
ties every identity here to exact matrix algebra.

Two consequences of that form are exploited for scale:

* heat columns at the ball center live in the radial subspace, so a
  tridiagonal model of size radius+1 reproduces them exactly at radii far
  beyond dense reach;
* the top adjacency eigenvalue is attained by a radial Perron vector, so
  spectral containment of huge balls follows from the same tridiagonal
  block (trees are bipartite, hence the spectrum is symmetric).

Matrix exponentials of the walk generators are evaluated by
uniformization (the Poisson-weighted power series of the nonnegative jump
matrix), which keeps entrywise relative accuracy even for entries near
the underflow floor. :func:`heat_matrix`, :func:`radial_heat_profile`
and :func:`z_heat_column` take that route. :func:`orthonormal_heat_matrix`
uses a symmetric eigendecomposition, whose round-off is absolute (near
machine epsilon on every entry).

:func:`spectrum` never forms the n x n matrix. Trees are bipartite: in
the order of even, then odd distance from the center, A = [[0, B], [B^T, 0]],
so the eigenvalues of A are exactly +-sigma_i for the singular values of
the n_even x n_odd block B, plus |n_even - n_odd| zeros. The SVD of B
has the same absolute error, O(eps ||A||), as a symmetric eigensolver on
the whole matrix; B B^T is never formed, since squaring would lose half
the digits of the eigenvalues near 1.

A continuous-time Monte Carlo walk with exponential clocks provides a
model-free estimate of kernel values. :func:`mc_heat` advances all walks
one jump at a time with array operations and consumes the random stream
in the order of a jump-by-jump loop over the walks, so its results are
bitwise those of that loop under the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tree import TreeParams, Vertex, distance, enumerate_ball, level
from .zline import check_time


@dataclass
class BallModel:
    """Truncated ball with vertex index maps and level data."""

    params: TreeParams
    center: Vertex
    radius: int
    vertices: list[Vertex]
    index: dict[tuple[int, ...], int]
    levels: np.ndarray
    dist_center: np.ndarray
    interior: np.ndarray  # all q+1 neighbours present

    @property
    def size(self) -> int:
        return len(self.vertices)


def build_ball_model(params: TreeParams, radius: int,
                     center: Vertex | None = None) -> BallModel:
    if center is None:
        center = Vertex(0, (0,) * radius)
    verts = enumerate_ball(center, radius, params)
    index = {v.word: i for i, v in enumerate(verts)}
    levels = np.array([level(v) for v in verts])
    dist_c = np.array([distance(v, center) for v in verts])
    interior = dist_c <= radius - 1
    return BallModel(params=params, center=center, radius=radius, vertices=verts,
                     index=index, levels=levels, dist_center=dist_c, interior=interior)


@dataclass
class Operators:
    """Dense matrices over the ball, Dirichlet truncation at the boundary.

    ``delta`` is the neighbour-average Laplacian in the counting basis;
    ``flow``, ``grad`` and ``grad_star`` are expressed in the
    measure-orthonormalized basis, where flow = I - A/(2 sqrt q),
    grad = I - P/sqrt(q) and grad_star its transpose form.
    """

    adjacency: np.ndarray
    predecessor: np.ndarray
    delta: np.ndarray
    flow: np.ndarray
    grad: np.ndarray
    grad_star: np.ndarray


#: largest ball, in vertices, that the dense models accept
MAX_DENSE = 25_000


def _edges(model: BallModel, max_dense: int = MAX_DENSE) -> np.ndarray:
    """(vertex, predecessor) index pairs of the ball's edges."""
    if model.size > max_dense:
        raise MemoryError(f"ball of {model.size} vertices exceeds the dense guard {max_dense}")
    return np.array([(i, model.index[v.word[:-1]]) for i, v in enumerate(model.vertices)
                     if v.word and v.word[:-1] in model.index], dtype=int).reshape(-1, 2)


def assemble_operators(model: BallModel, max_dense: int = MAX_DENSE) -> Operators:
    pairs = _edges(model, max_dense)
    adj = np.zeros((model.size, model.size))
    adj[pairs[:, 0], pairs[:, 1]] = adj[pairs[:, 1], pairs[:, 0]] = 1.0
    pred = np.zeros_like(adj)
    pred[pairs[:, 0], pairs[:, 1]] = 1.0
    rq = math.sqrt(model.params.q)
    eye = np.eye(model.size)
    return Operators(
        adjacency=adj,
        predecessor=pred,
        delta=eye - adj / (model.params.q + 1),
        flow=eye - adj / (2.0 * rq),
        grad=eye - pred / rq,
        grad_star=eye - pred.T / rq,
    )


def spectrum(model: BallModel) -> np.ndarray:
    """Sorted eigenvalues of the symmetric flow Laplacian I - A/(2 sqrt q).

    Every edge joins an even and an odd distance from the center, so A is
    [[0, B], [B^T, 0]] in parity order and its eigenvalues are the
    singular values of B with both signs, plus |n_even - n_odd| zeros.
    Only B is formed.
    """
    pairs = _edges(model)
    odd = model.dist_center % 2 == 1
    n_odd = int(odd.sum())
    n_even = model.size - n_odd
    pos = np.empty(model.size, dtype=int)  # index within its parity class
    pos[~odd] = np.arange(n_even)
    pos[odd] = np.arange(n_odd)
    flip = odd[pairs[:, 0]]  # child odd, predecessor even
    pairs[flip] = pairs[flip, ::-1]
    block = np.zeros((n_even, n_odd))
    block[pos[pairs[:, 0]], pos[pairs[:, 1]]] = 1.0
    half = np.linalg.svd(block, compute_uv=False) / (2.0 * math.sqrt(model.params.q))
    ones = np.ones(abs(n_even - n_odd))
    return np.sort(np.concatenate([1.0 - half, ones, 1.0 + half]))


def heat_matrix(model: BallModel, t: float, ops: Operators | None = None) -> np.ndarray:
    """Kernel-normalized heat matrix: entries H_t(x, y) with respect to mu.

    The orthonormalized heat matrix exp(-t (I - A/(2 sqrt q))) is computed
    by uniformization of the nonnegative adjacency, applied to the
    identity, then divided by sqrt(mu(x) mu(y)). No cancellation occurs,
    so every entry keeps its relative precision at every t >= 0, however
    small it is or however large the rescale; at t = 0 the result is
    exactly the identity kernel delta_x(y)/mu(y).
    """
    if ops is None:
        ops = assemble_operators(model)
    # the ball diameter 2 * radius bounds every graph distance in the ball
    expmat = _uniformization(ops.adjacency, 2.0 * math.sqrt(model.params.q), t,
                             np.eye(model.size), min_terms=2 * model.radius + 50)
    half_log_mu = 0.5 * model.levels * model.params.log_q
    scale = np.exp(-half_log_mu[:, None] - half_log_mu[None, :])
    return expmat * scale


def orthonormal_heat_matrix(model: BallModel, t: float,
                            ops: Operators | None = None) -> np.ndarray:
    """Heat matrix in the orthonormalized basis (no measure rescaling)."""
    if ops is None:
        ops = assemble_operators(model)
    w, v = np.linalg.eigh(ops.flow)
    return (v * np.exp(-t * w)) @ v.T


# ---------------------------------------------------------------------------
# radial (spherical-symmetry) reductions
# ---------------------------------------------------------------------------

def _radial_jump_matrix(q: int, radius: int) -> np.ndarray:
    """Radial block of the ball adjacency acting on profiles f(distance)."""
    T = np.diag(np.full(radius, float(q)), 1) + np.eye(radius + 1, k=-1)
    T[0, 1:2] = q + 1.0  # the center has q + 1 neighbours
    return T


def ball_adjacency_top(q: int, radius: int) -> float:
    """Largest adjacency eigenvalue of the radius ball, exactly by symmetry.

    The Perron eigenvector is radial (averaging a positive eigenvector
    over the vertex-transitive sphere symmetries keeps it a positive
    eigenvector), so the top eigenvalue lives in the radial block, which
    is similar to a symmetric tridiagonal matrix. Bipartiteness pins the
    bottom at the negated top.
    """
    T = _radial_jump_matrix(q, radius)
    sizes = np.array([1.0] + [(q + 1.0) * q ** (k - 1) for k in range(1, radius + 1)])
    d = np.sqrt(sizes)
    sym = T * (d[:, None] / d[None, :])
    sym = 0.5 * (sym + sym.T)  # symmetric up to rounding by construction
    return float(np.linalg.eigvalsh(sym)[-1])


def flow_spectrum_bounds(q: int, radius: int) -> tuple[float, float]:
    """(min, max) eigenvalue of the flow Laplacian on the radius ball."""
    top = ball_adjacency_top(q, radius)
    half = top / (2.0 * math.sqrt(q))
    return 1.0 - half, 1.0 + half


def delta_min_eig(q: int, radius: int) -> float:
    """Smallest eigenvalue of the combinatorial Laplacian on the ball."""
    return 1.0 - ball_adjacency_top(q, radius) / (q + 1.0)


def _uniformization(jump: np.ndarray, scale: float, t: float,
                    init: np.ndarray, tol: float = 1e-16,
                    min_terms: int = 0) -> np.ndarray:
    """exp(-t (I - jump/scale)) @ init by Poisson-weighted powers.

    ``init`` is a start vector (one column) or a matrix (one product per
    term either way). With nonnegative ``jump`` and ``init`` every
    product is nonnegative, so every entry keeps relative precision; the
    Poisson tail rule certifies the absolute truncation. Entries only
    populated by high powers need ``min_terms`` beyond their graph
    distance from the start to be relatively complete, since the
    per-entry term ratios fall off like (t/m)^2. At t = 0 the Poisson law
    is the point mass at 0 and ``init`` is returned unchanged.
    """
    if not t >= 0.0:
        raise ValueError(f"time must be >= 0, got {t}")
    vec = np.array(init, dtype=float)
    if t == 0.0:
        return vec
    out = np.zeros_like(vec)
    log_w = -t
    m = 0
    while True:
        out += math.exp(log_w) * vec
        if m >= min_terms and m + 2 > t:
            log_tail = -t + (m + 1) * math.log(t) - math.lgamma(m + 2) \
                - math.log1p(-t / (m + 2))
            if log_tail < math.log(tol):
                return out
        m += 1
        log_w += math.log(t) - math.log(m)
        vec = jump @ vec / scale
        if m > 10_000_000:  # pragma: no cover
            raise RuntimeError("uniformization failed to terminate")


def radial_heat_profile(q: int, t: float, radius: int,
                        generator: str = "flow") -> np.ndarray:
    """Heat column at the center of a radius ball, reduced to profiles.

    For ``generator="flow"`` the entries are the orthonormalized-kernel
    values at distance k from the center, i.e. they converge to the
    radial factor of the flow heat kernel as the radius grows. For
    ``generator="combinatorial"`` they are counting-measure kernel values
    of the neighbour-average Laplacian.
    """
    T = _radial_jump_matrix(q, radius)
    if generator == "flow":
        scale = 2.0 * math.sqrt(q)
    elif generator == "combinatorial":
        scale = q + 1.0
    else:
        raise ValueError(f"unknown generator {generator!r}")
    return _uniformization(T, scale, t, np.eye(radius + 1)[0], min_terms=radius + 50)


def z_heat_column(t: float, half_width: int) -> np.ndarray:
    """Matrix-model heat column on the integer interval [-N, N].

    Returns values at 0..N (radial symmetry of the column at the center).
    Uniformization of the nonnegative jump matrix keeps tiny entries at
    full relative precision, unlike a generic matrix exponential.
    """
    n = 2 * half_width + 1
    W = np.eye(n, k=1) + np.eye(n, k=-1)
    col = _uniformization(W, 2.0, t, np.eye(n)[half_width],
                          min_terms=half_width + 60)
    return col[half_width:]


# ---------------------------------------------------------------------------
# continuous-time Monte Carlo walk
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WalkConfig:
    """Continuous-time walk: unit-rate jumps, up with probability 1/2,
    each of the q successors with probability 1/(2q)."""

    q: int
    t: float
    n_walks: int
    seed: int

    def __post_init__(self) -> None:
        TreeParams(self.q)  # validates the branching number
        check_time(self.t)
        if self.n_walks <= 0:
            raise ValueError("walk count must be positive")


@dataclass(frozen=True)
class RelState:
    """Position relative to the start: rise to the a-th ancestor, then
    descend along ``word``; digit 0 at an ancestor points back toward the
    start, so canonical states below an ancestor start with a nonzero digit."""

    up: int
    word: tuple[int, ...] = ()

    @property
    def dist(self) -> int:
        return self.up + len(self.word)

    @property
    def level_offset(self) -> int:
        return self.up - len(self.word)


#: arrival targets of the walk checks: the start, its predecessor, a
#: successor, a second-generation successor and a sibling
WALK_TARGETS = (RelState(0, ()), RelState(1, ()), RelState(0, (0,)),
                RelState(0, (0, 1)), RelState(1, (1,)))


@dataclass
class WalkResult:
    config: WalkConfig
    hits: dict
    mean_level_offset: float
    stderr_level_offset: float
    estimates: dict = field(default_factory=dict)

    def estimate(self, target: RelState) -> tuple[float, float]:
        """(probability estimate, binomial standard error) for one target."""
        n = self.config.n_walks
        p = self.hits.get((target.up, target.word), 0) / n
        return p, math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)


def _tally(q: int, up: np.ndarray, length: np.ndarray,
           digits: np.ndarray) -> dict[tuple[int, tuple[int, ...]], int]:
    """Count the distinct states (up, word) of the walks.

    Words are packed into base-q int64 chunks, one column at a time, and
    the runs of equal (up, length, chunks) keys are counted after a
    lexicographic sort.
    """
    top = int(length.max())
    per_chunk = 1
    while q ** (per_chunk + 1) <= 2**63:
        per_chunk += 1
    keys = [up, length]
    for lo in range(0, top, per_chunk):
        key = np.zeros(len(up), dtype=np.int64)
        for c in range(lo, min(lo + per_chunk, top)):
            key *= q  # digits past a word's length are left from popped letters
            key += np.where(c < length, digits[:, c], 0)
        keys.append(key)
    idx = np.lexsort(keys[::-1])
    first = np.zeros(len(up), dtype=bool)
    first[0] = True
    for key in keys:
        ordered = key[idx]
        first[1:] |= ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(first)
    counts = np.diff(starts, append=len(up))
    reps = idx[starts]
    return {(a, tuple(w[:k])): c for a, k, w, c in
            zip(up[reps].tolist(), length[reps].tolist(),
                digits[reps, :top].tolist(), counts.tolist())}


def mc_heat(config: WalkConfig, targets: list[RelState] | None = None) -> WalkResult:
    """Simulate the walk and tabulate arrival frequencies.

    The arrival frequency at a relative state estimates the kernel mass
    H_t(x, y) mu(y) for the corresponding pair. Deterministic under the
    seed: identical configurations reproduce results bit for bit.
    """
    q, t, n = config.q, config.t, config.n_walks
    rng = np.random.default_rng(config.seed)
    jumps = rng.poisson(t, n)
    draws = rng.random(int(jumps.sum()))
    # walk i's j-th jump reads draws[start_i + j]; with the walks ordered by
    # jump count, longest first, those still jumping at step j are a prefix
    order = np.argsort(-jumps, kind="stable")
    starts = (np.cumsum(jumps) - jumps)[order]
    up = np.zeros(n, dtype=np.int64)
    length = np.zeros(n, dtype=np.int64)
    digits = np.zeros((n, 8), dtype=np.min_scalar_type(q - 1))
    for j, m in enumerate(n - np.cumsum(np.bincount(jumps))):
        if m == 0:
            break
        u = draws[starts[:m] + j]
        a, ln = up[:m], length[:m]
        rise = u < 0.5
        digit = np.minimum(((u - 0.5) * 2.0 * q).astype(np.int64), q - 1)
        empty = ln == 0
        back = ~rise & empty & (a > 0) & (digit == 0)
        push = np.flatnonzero(~rise & ~back)
        a += rise & empty
        a -= back
        ln -= rise & ~empty
        col = ln[push]
        if push.size and col.max() == digits.shape[1]:
            digits = np.concatenate([digits, np.zeros_like(digits)], axis=1)
        digits[push, col] = digit[push]
        ln[push] += 1
    hits = _tally(q, up, length, digits)
    off = up - length  # integer sums, exact as the loop's float sums were
    mean = float(off.sum()) / n
    var = max(float((off * off).sum()) / n - mean * mean, 0.0)
    result = WalkResult(config=config, hits=hits, mean_level_offset=mean,
                        stderr_level_offset=math.sqrt(var / n))
    if targets:
        for tgt in targets:
            result.estimates[(tgt.up, tgt.word)] = result.estimate(tgt)
    return result


def analytic_arrival_probability(target: RelState, t: float, params: TreeParams,
                                 tol: float = 1e-12) -> float:
    """Exact kernel mass H_t(x, y) mu(y) for a relative target position."""
    from .heat import j_value

    d = target.dist
    off = target.level_offset
    return math.exp(0.5 * off * params.log_q) * j_value(t, d, params, tol)
