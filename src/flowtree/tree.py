"""Geometry of the homogeneous tree with branching number q.

Vertices are addressed relative to a truncation apex: a vertex is the apex
plus a finite word of digits in {0, ..., q-1}, each digit one step further
down. Levels increase toward the apex, so a vertex under an apex at base
level L with a word of length m sits on level L - m. Dropping the last
digit moves to the predecessor (one level up); appending a digit moves to
a successor (one level down). The upward direction is the distinguished
boundary direction of the flow structure.

Sphere strata: around a base vertex y, the vertices at distance k split
into groups by how many of the k geodesic steps go up. A vertex whose
geodesic rises exactly j times sits on level offset 2j - k. The group
sizes are exact integers and carry all the combinatorics needed to reduce
sums over the whole tree to short series. :func:`pair_strata` is the
two-point counter; :func:`enumerate_ball` serves only the dense matrix
oracle and the tests.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass
from enum import Enum


class TruncationError(ValueError):
    """An operation needed vertices above the truncation apex."""


@dataclass(frozen=True)
class TreeParams:
    """Branching number q >= 2 plus the derived spectral constant b."""

    q: int

    def __post_init__(self) -> None:
        if isinstance(self.q, bool) or not isinstance(self.q, numbers.Integral) or self.q < 2:
            raise ValueError(f"branching number must be an integer >= 2, got {self.q!r}")
        object.__setattr__(self, "q", int(self.q))  # numpy integers become exact ints

    @property
    def b(self) -> float:
        """Bottom of the combinatorial Laplacian spectrum: (sqrt(q)-1)^2/(q+1)."""
        return (math.sqrt(self.q) - 1.0) ** 2 / (self.q + 1)

    @property
    def log_q(self) -> float:
        return math.log(self.q)


class Rel(Enum):
    """Order relation of a vertex pair (u, v) under the level order."""

    EQUAL = "equal"
    ANCESTOR = "ancestor"        # u strictly above v (v <= u)
    DESCENDANT = "descendant"    # u strictly below v (u <= v)
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class Vertex:
    """A vertex in a truncated tree: apex level plus a digit word.

    Two vertices are comparable only within the same truncation, i.e. the
    same ``base_level`` apex.
    """

    base_level: int
    word: tuple[int, ...] = ()

    def __str__(self) -> str:
        return f"{self.base_level}:{''.join(str(d) for d in self.word)}"

    @property
    def level(self) -> int:
        return self.base_level - len(self.word)

    def predecessor(self) -> "Vertex":
        if not self.word:
            raise TruncationError("apex has no predecessor inside the truncation")
        return Vertex(self.base_level, self.word[:-1])

    def successor(self, digit: int, q: int) -> "Vertex":
        if not 0 <= digit < q:
            raise ValueError(f"digit must lie in [0, {q}), got {digit}")
        return Vertex(self.base_level, self.word + (digit,))


def _check_same_apex(u: Vertex, v: Vertex) -> None:
    if u.base_level != v.base_level:
        raise ValueError("vertices live under different truncation apexes")


def level(v: Vertex) -> int:
    """Horocycle index of v; increases toward the apex."""
    return v.level


def common_prefix_len(u: Vertex, v: Vertex) -> int:
    n = 0
    for a, b in zip(u.word, v.word):
        if a != b:
            break
        n += 1
    return n


def meet(u: Vertex, v: Vertex) -> Vertex:
    """Lowest common upper bound of u and v in the truncation."""
    _check_same_apex(u, v)
    return Vertex(u.base_level, u.word[: common_prefix_len(u, v)])


def distance(u: Vertex, v: Vertex) -> int:
    """Graph distance: both words descend from the common prefix."""
    _check_same_apex(u, v)
    c = common_prefix_len(u, v)
    return len(u.word) + len(v.word) - 2 * c


def relation(u: Vertex, v: Vertex) -> Rel:
    """Order relation of u against v; prefix test on the digit words."""
    _check_same_apex(u, v)
    c = common_prefix_len(u, v)
    if c == len(u.word) == len(v.word):
        return Rel.EQUAL
    if c == len(u.word):
        return Rel.ANCESTOR
    if c == len(v.word):
        return Rel.DESCENDANT
    return Rel.INCOMPARABLE


def flow_measure(v: Vertex, params: TreeParams) -> float:
    """Flow measure q**level(v), evaluated in log space."""
    return math.exp(v.level * params.log_q)


def sphere_stratum_count(k: int, j: int, params: TreeParams) -> int:
    """Exact number of vertices at distance k whose geodesic rises j times.

    k = 0 has the single trivial stratum j = 0. For k >= 1 the stratum
    j = k is the single k-fold predecessor, j = 0 is the full k-th
    generation below (q**k vertices), and each intermediate stratum first
    rises j steps and then descends avoiding the arrival branch.
    """
    if k < 0:
        raise ValueError("radius k must be >= 0")
    if not 0 <= j <= k:
        raise ValueError(f"stratum index j={j} outside [0, {k}]")
    q = params.q
    if k == 0:
        return 1
    if j == 0:
        return q**k
    if j == k:
        return 1
    return (q - 1) * q ** (k - j - 1)


def weighted_sphere_sum(k: int, params: TreeParams) -> float:
    """Sum of q**(offset/2) over the distance-k sphere, offset = 2j - k.

    Closed form q**(k/2) * (2 + (k-1)(q-1)/q) for k >= 1, and 1 at k = 0.
    """
    if k < 0:
        raise ValueError("radius k must be >= 0")
    if k == 0:
        return 1.0
    q = params.q
    return math.exp(0.5 * k * params.log_q) * (2.0 + (k - 1) * (q - 1) / q)


def restricted_sphere_sums(k: int, params: TreeParams) -> tuple[float, float]:
    """Weighted sphere sums restricted to comparable pairs and to one stratum.

    Returns (sum over the strata j in {0, k} only, max over single strata
    of count * q**(offset/2)). Both are comparable to q**(k/2) with
    constants independent of q.
    """
    if k < 0:
        raise ValueError("radius k must be >= 0")
    if k == 0:
        return 1.0, 1.0
    half_power = math.exp(0.5 * k * params.log_q)
    comparable = 2.0 * half_power
    # strata j=0 and j=k both weigh q^(k/2); middle strata weigh (q-1)/q of that
    single_max = half_power
    return comparable, single_max


def _check_ball(center: Vertex, radius: int) -> None:
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if radius > len(center.word):
        raise TruncationError(
            f"ball of radius {radius} around a vertex with only "
            f"{len(center.word)} ancestors leaves the truncation"
        )


def enumerate_ball(center: Vertex, radius: int, params: TreeParams,
                   max_vertices: int = 2_000_000) -> list[Vertex]:
    """All vertices at distance <= radius from center, each exactly once.

    Requires the ball to fit inside the truncation: the center must have at
    least ``radius`` ancestors below the apex. The successor side is always
    available. Guarded against runaway enumeration.
    """
    _check_ball(center, radius)
    out = [center]
    seen = {center.word}
    frontier = [center]
    for _ in range(radius):
        nxt = []
        for v in frontier:
            if v.word and v.word[:-1] not in seen:
                w = v.predecessor()
                seen.add(w.word)
                nxt.append(w)
            for digit in range(params.q):
                cw = v.word + (digit,)
                if cw not in seen:
                    seen.add(cw)
                    nxt.append(Vertex(v.base_level, cw))
        out.extend(nxt)
        frontier = nxt
        if len(out) > max_vertices:
            raise MemoryError(f"ball enumeration exceeded {max_vertices} vertices")
    return out


def pair_strata(y: Vertex, z: Vertex, radius: int, params: TreeParams) -> Counter:
    """Count the ball of the given radius around y by two-point strata.

    Keys are (d(x, y), x at or above y, d(x, z), x at or above z, level(x)).
    Only the spine, the geodesics from y and z up to the top of the ball,
    is walked: the subtrees leaving a spine vertex v through its ``free``
    children off the spine hold free * q^(r-1) vertices at depth r, each
    at distance d(v, .) + r from y and from z and above neither.
    """
    _check_ball(y, radius)
    q = params.q
    top = len(y.word) - radius
    spine = {y.word[:i] for i in range(top, len(y.word) + 1)}
    if z.word[:top] == y.word[:top]:
        spine |= {z.word[:i] for i in range(top, len(z.word) + 1)}
    out: Counter = Counter()
    for w in spine:
        v = Vertex(y.base_level, w)
        dy, dz = distance(v, y), distance(v, z)
        if dy > radius:
            continue
        out[(dy, y.word[: len(w)] == w, dz, z.word[: len(w)] == w, v.level)] += 1
        free = q - sum(w + (c,) in spine for c in range(q))
        if free:
            for r in range(1, radius - dy + 1):
                out[(dy + r, False, dz + r, False, v.level - r)] += free * q ** (r - 1)
    return out


def ball_size(radius: int, params: TreeParams) -> int:
    """1 + sum_{k<=radius} (q+1) q^(k-1), the exact ball cardinality."""
    q = params.q
    return 1 + sum((q + 1) * q ** (k - 1) for k in range(1, radius + 1))
