import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtree.tree import (
    Rel,
    TreeParams,
    TruncationError,
    Vertex,
    ball_size,
    distance,
    enumerate_ball,
    flow_measure,
    level,
    meet,
    pair_strata,
    relation,
    restricted_sphere_sums,
    sphere_stratum_count,
    weighted_sphere_sum,
)

P2 = TreeParams(2)
P3 = TreeParams(3)


def test_params_validation():
    with pytest.raises(ValueError):
        TreeParams(1)
    for bad in (2.5, 2.0, True, "2"):
        with pytest.raises(ValueError, match="must be an integer >= 2"):
            TreeParams(bad)
    assert TreeParams(np.int64(3)) == TreeParams(3)
    assert type(TreeParams(np.int64(3)).q) is int
    for q in (2, 3, 7):
        b = TreeParams(q).b
        assert 0.0 < b < 1.0
        assert b == pytest.approx((math.sqrt(q) - 1) ** 2 / (q + 1))


def test_level_examples():
    assert level(Vertex(0, ())) == 0
    assert level(Vertex(0, (0, 1, 0))) == -3
    assert level(Vertex(5, (1,))) == 4


def test_level_of_predecessor():
    v = Vertex(0, (0, 1, 1))
    assert level(v.predecessor()) == level(v) + 1
    with pytest.raises(TruncationError):
        Vertex(0, ()).predecessor()


def test_distance_examples():
    v = Vertex(0, (0, 1))
    assert distance(v, v) == 0
    assert distance(Vertex(0, (0,)), Vertex(0, (1,))) == 2
    u = Vertex(0, (0, 1))
    w = Vertex(0, (0, 1, 0, 0, 1, 1))
    assert distance(u, w) == 4
    with pytest.raises(ValueError):
        distance(Vertex(0, ()), Vertex(1, ()))


def test_relation_examples():
    assert relation(Vertex(0, (0,)), Vertex(0, (0, 1))) is Rel.ANCESTOR
    assert relation(Vertex(0, (0,)), Vertex(0, (1,))) is Rel.INCOMPARABLE
    v = Vertex(0, (1, 0))
    assert relation(v, v) is Rel.EQUAL
    assert relation(Vertex(0, (0, 1)), Vertex(0, (0,))) is Rel.DESCENDANT


def test_flow_measure():
    assert flow_measure(Vertex(0, ()), P2) == pytest.approx(1.0)
    assert flow_measure(Vertex(0, (0, 0, 1)), P2) == pytest.approx(1.0 / 8.0)
    # flow condition: the measure of a vertex equals the sum over successors
    v = Vertex(0, (1,))
    succ_total = sum(flow_measure(v.successor(d, 3), P3) for d in range(3))
    assert succ_total == pytest.approx(flow_measure(v, P3), rel=1e-14)


def test_stratum_count_small():
    assert sphere_stratum_count(1, 0, P2) == 2
    assert sphere_stratum_count(1, 1, P2) == 1
    assert sphere_stratum_count(3, 1, P2) == 2
    assert sum(sphere_stratum_count(4, j, P2) for j in range(5)) == 24
    with pytest.raises(ValueError):
        sphere_stratum_count(2, 3, P2)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_stratum_counts_match_enumeration(q):
    params = TreeParams(q)
    rmax = 8 if q == 2 else 6
    center = Vertex(0, (0,) * rmax)
    verts = enumerate_ball(center, rmax, params)
    buckets: dict = {}
    for v in verts:
        k = distance(v, center)
        off = level(v) - level(center)
        j = (off + k) // 2
        buckets[(k, j)] = buckets.get((k, j), 0) + 1
    for (k, j), count in buckets.items():
        assert count == sphere_stratum_count(k, j, params), (k, j)
    # every nonempty stratum present
    for k in range(rmax + 1):
        for j in range(k + 1):
            assert buckets.get((k, j), 0) == sphere_stratum_count(k, j, params)


def test_weighted_sphere_sum_small():
    assert weighted_sphere_sum(0, P2) == pytest.approx(1.0)
    assert weighted_sphere_sum(1, P2) == pytest.approx(2.0 * math.sqrt(2.0))


def test_weighted_sphere_sum_matches_enumeration_exactly():
    center = Vertex(0, (0,) * 7)
    for params in (P2, P3):
        verts = enumerate_ball(center, 6 if params.q == 3 else 7, params)
        sums_by_k: dict = {}
        for v in verts:
            k = distance(v, center)
            off = level(v) - level(center)
            sums_by_k[k] = sums_by_k.get(k, 0.0) + math.exp(0.5 * off * params.log_q)
        for k, val in sums_by_k.items():
            assert val == pytest.approx(weighted_sphere_sum(k, params), rel=1e-12)


def test_weighted_sphere_comparability_window():
    for q in range(2, 8):
        params = TreeParams(q)
        for k in range(61):
            ratio = weighted_sphere_sum(k, params) / (
                math.exp(0.5 * k * params.log_q) * (k + 1))
            assert 0.25 <= ratio <= 1.0, (q, k, ratio)


def test_restricted_sphere_sums():
    assert restricted_sphere_sums(0, P2) == (1.0, 1.0)
    comparable, _ = restricted_sphere_sums(2, P2)
    assert comparable == pytest.approx(4.0)
    for q in (2, 5):
        params = TreeParams(q)
        for k in range(61):
            both = restricted_sphere_sums(k, params)
            scale = math.exp(0.5 * k * params.log_q)
            for val in both:
                assert 0.5 <= val / scale <= 2.0


def test_ball_enumeration():
    center = Vertex(0, (0, 1, 0, 1))
    assert enumerate_ball(center, 0, P2) == [center]
    assert len(enumerate_ball(center, 1, P2)) == 4
    for r in range(4):
        assert len(enumerate_ball(center, r, P2)) == ball_size(r, P2)
    with pytest.raises(TruncationError):
        enumerate_ball(Vertex(0, (1,)), 3, P2)


def test_stratum_profile_base_point_independent():
    for center in (Vertex(0, (0,) * 6), Vertex(0, (1, 0, 1, 1, 0, 1)), Vertex(3, (0,) * 6)):
        verts = enumerate_ball(center, 5, P2)
        profile: dict = {}
        for v in verts:
            k = distance(v, center)
            j = (level(v) - level(center) + k) // 2
            profile[(k, j)] = profile.get((k, j), 0) + 1
        assert all(profile[(k, j)] == sphere_stratum_count(k, j, P2)
                   for (k, j) in profile)


def _strata_by_enumeration(y, z, radius, params):
    out = Counter()
    for x in enumerate_ball(y, radius, params):
        n = len(x.word)
        out[(distance(x, y), y.word[:n] == x.word,
             distance(x, z), z.word[:n] == x.word, level(x))] += 1
    return out


@pytest.mark.parametrize("q", [2, 3])
def test_pair_strata_match_enumeration(q):
    params = TreeParams(q)
    y = Vertex(2, tuple(i % q for i in range(8)))
    partners = {
        "equal": y,
        "ancestor": Vertex(2, y.word[:3]),           # d = 5
        "descendant": Vertex(2, y.word + (0, 1, 0)),  # d = 3
        "incomparable": Vertex(2, y.word[:6] + ((y.word[6] + 1) % q, 0)),  # d = 4
        "above the ball": Vertex(2, ()),
    }
    for name, z in partners.items():
        assert distance(y, z) <= 5 or name == "above the ball"
        for radius in range(0, len(y.word) + 1):
            got = pair_strata(y, z, radius, params)
            assert got == _strata_by_enumeration(y, z, radius, params), (name, radius)
            assert sum(got.values()) == ball_size(radius, params)
    with pytest.raises(TruncationError):
        pair_strata(y, y, len(y.word) + 1, params)


def test_vertex_serialization():
    assert str(Vertex(0, (0, 2, 1))) == "0:021"
    assert str(Vertex(-2, ())) == "-2:"


words = st.lists(st.integers(min_value=0, max_value=1), min_size=0, max_size=12)


@settings(max_examples=200, deadline=None)
@given(words, words)
def test_distance_dominates_level_gap(wu, wv):
    u, v = Vertex(0, tuple(wu)), Vertex(0, tuple(wv))
    d = distance(u, v)
    gap = abs(level(u) - level(v))
    assert d >= gap
    comparable = relation(u, v) in (Rel.EQUAL, Rel.ANCESTOR, Rel.DESCENDANT)
    assert (d == gap) == comparable


@settings(max_examples=200, deadline=None)
@given(words, words, words)
def test_distance_triangle_inequality(wu, wv, ww):
    u, v, w = Vertex(0, tuple(wu)), Vertex(0, tuple(wv)), Vertex(0, tuple(ww))
    assert distance(u, w) <= distance(u, v) + distance(v, w)
    assert distance(u, v) == distance(v, u)
    assert (distance(u, v) == 0) == (u == v)


@settings(max_examples=200, deadline=None)
@given(words, words)
def test_meet_is_common_ancestor(wu, wv):
    u, v = Vertex(0, tuple(wu)), Vertex(0, tuple(wv))
    m = meet(u, v)
    for x in (u, v):
        assert relation(m, x) in (Rel.EQUAL, Rel.ANCESTOR)
    assert distance(u, v) == distance(u, m) + distance(m, v)
