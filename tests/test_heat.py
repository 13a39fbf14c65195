import math

import numpy as np
import pytest

from flowtree import oracle, sums
from flowtree.heat import (
    STENCILS,
    KernelQuery,
    combinatorial_kernel,
    grad_x,
    grad_xy,
    grad_y,
    j_row,
    j_value,
    jhat_row,
    kernel,
)
from flowtree.tree import Rel, TreeParams, Vertex, distance, enumerate_ball, level
from flowtree.zline import heat_z, heat_z_row

P2 = TreeParams(2)
P3 = TreeParams(3)


def _q(t, x, y):
    return KernelQuery.from_vertices(t, x, y)


def test_query_validation():
    with pytest.raises(ValueError):
        KernelQuery(1.0, 1, 0, Rel.ANCESTOR)  # parity
    with pytest.raises(ValueError):
        KernelQuery(1.0, 1, 1, Rel.EQUAL)
    with pytest.raises(ValueError):
        KernelQuery(1.0, 0, 0, Rel.ANCESTOR)
    with pytest.raises(ValueError):
        KernelQuery(1.0, 1, 1, Rel.INCOMPARABLE)
    with pytest.raises(ValueError):
        KernelQuery(-1.0, 0, 0, Rel.EQUAL)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 0.0])
def test_nonfinite_time_rejected(t):
    with pytest.raises(ValueError, match="time must be positive"):
        KernelQuery(t, 0, 0, Rel.EQUAL)
    with pytest.raises(ValueError, match="time must be positive"):
        j_value(t, 0, P2)
    with pytest.raises(ValueError, match="time must be positive"):
        jhat_row(t, 4, P2)
    with pytest.raises(ValueError, match="time must be positive"):
        combinatorial_kernel(t, 0, P2)


def test_j_series_first_term_bounds():
    for q in range(2, 8):
        params = TreeParams(q)
        for t in (0.5, 2.0, 50.0):
            for d in (0, 1, 5, 20):
                first = (2.0 / t) * math.exp(-0.5 * d * params.log_q) \
                    * (d + 1) * heat_z(t, d + 1)
                val = j_value(t, d, params)
                assert first <= val <= 6.0 * first


def test_j_first_term_bracket_does_not_widen_with_q():
    def max_ratio(q):
        params = TreeParams(q)
        worst = 0.0
        for t in np.logspace(math.log10(0.5), 3, 7):
            jh = jhat_row(float(t), 40, params, 1e-13)
            hz = heat_z_row(float(t), 42)
            d = np.arange(41)
            first = (2.0 / t) * (d + 1.0) * hz[1:42]
            worst = max(worst, float(np.max(jh[first > 0] / first[first > 0])))
        return worst

    base = max_ratio(2)
    for q in (3, 5, 7):
        assert max_ratio(q) <= base + 1e-9


def test_jhat_row_matches_scalar_series():
    for params in (P2, P3):
        for t in (0.3, 1.0, 30.0):
            row = j_row(t, 12, params, 1e-13)
            for d in range(13):
                assert row[d] == pytest.approx(j_value(t, d, params, 1e-13),
                                               rel=1e-11, abs=1e-300)


def test_kernel_mass_is_one():
    for q in (2, 3, 5):
        params = TreeParams(q)
        for t in (0.5, 1.0, 4.0, 16.0):
            total = sums.weighted_sum(sums.SumSpec("H", t), params, tol=1e-12)
            assert total == pytest.approx(1.0, abs=1e-8)


def test_kernel_conjugation_cross_check():
    # flow kernel against the counting-measure kernel with rescaled time
    for params in (P2, P3):
        b = params.b
        for t in (0.5, 2.0, 10.0):
            for d, s in ((0, 0), (1, 1), (3, 5), (6, 2)):
                rel = Rel.EQUAL if d == 0 else Rel.ANCESTOR
                lhs = kernel(KernelQuery(t, d, s, rel), params, 1e-13)
                rhs = math.exp(-0.5 * s * params.log_q) \
                    * math.exp(b * t / (1.0 - b)) \
                    * combinatorial_kernel(t / (1.0 - b), d, params, 1e-14)
                assert lhs == pytest.approx(rhs, rel=1e-10)


def test_combinatorial_kernel_identity_limit():
    assert combinatorial_kernel(1e-6, 0, P2) == pytest.approx(1.0, abs=1e-5)


def test_combinatorial_kernel_matches_radial_matrix():
    for q in (2, 3):
        params = TreeParams(q)
        for t in (0.5, 2.0, 4.0):
            profile = oracle.radial_heat_profile(q, t, 30, generator="combinatorial")
            for d in range(9):
                assert profile[d] == pytest.approx(
                    combinatorial_kernel(t, d, params, 1e-14), rel=1e-6)


def test_kernel_depends_only_on_invariants():
    t = 1.7
    a = _q(t, Vertex(0, (0, 1, 0)), Vertex(0, (0, 1, 0, 1, 1)))
    bq = _q(t, Vertex(0, (1,) * 3), Vertex(0, (1, 1, 1, 0, 0)))
    assert a == bq
    assert kernel(a, P2) == kernel(bq, P2)
    assert grad_xy(a, P2) == grad_xy(bq, P2)


def test_gradients_match_finite_differences():
    base = Vertex(0, (0, 1, 1, 0, 1, 0, 0, 1))
    y = Vertex(0, (0, 1, 1, 0))
    t = 2.5
    for x in (base, y, Vertex(0, (0, 1, 1, 0, 1)), Vertex(0, (0, 1, 0))):
        gx = grad_x(_q(t, x, y), P2)
        direct = kernel(_q(t, x, y), P2) - kernel(_q(t, x.predecessor(), y), P2)
        assert gx == pytest.approx(direct, rel=1e-11, abs=1e-16)
        gy = grad_y(_q(t, x, y), P2)
        direct = kernel(_q(t, x, y), P2) - kernel(_q(t, x, y.predecessor()), P2)
        assert gy == pytest.approx(direct, rel=1e-11, abs=1e-16)
        gxy = grad_xy(_q(t, x, y), P2)
        direct = (kernel(_q(t, x, y), P2)
                  - kernel(_q(t, x.predecessor(), y), P2)
                  - kernel(_q(t, x, y.predecessor()), P2)
                  + kernel(_q(t, x.predecessor(), y.predecessor()), P2))
        assert gxy == pytest.approx(direct, rel=1e-10, abs=1e-16)


def test_gradient_magnitude_bound():
    y = Vertex(0, (0, 0, 1, 0))
    t = 1.0
    for x in (y, Vertex(0, (0, 0)), Vertex(0, (0, 0, 1, 0, 1, 1)), Vertex(0, (1, 1))):
        g = grad_x(_q(t, x, y), P2)
        bound = kernel(_q(t, x, y), P2) + kernel(_q(t, x.predecessor(), y), P2)
        assert abs(g) <= bound * (1 + 1e-12)


def test_gradient_pointwise_bound_measured_constant():
    # |grad| / (q^(-s/2) q^(-d/2) heat_z(d+1) (d^2/t + 1)/t) stays below a
    # measured constant in the non-comparable branch (measured max 4.73)
    worst = 0.0
    for q in (2, 3, 5):
        params = TreeParams(q)
        for t in (0.5, 1.0, 4.0, 64.0, 1024.0):
            row = heat_z_row(t, 46)
            for d in range(1, 41):
                rel = Rel.INCOMPARABLE if d >= 2 else Rel.DESCENDANT
                g = grad_x(KernelQuery(t, d, d % 2, rel), params, 1e-14)
                pref = math.exp(-0.5 * (d % 2 + d) * params.log_q)
                comp = pref * row[d + 1] * (d * d / t + 1.0) / t
                if comp > 1e-280:
                    worst = max(worst, abs(g) / comp)
    assert worst <= 6.0


def test_gradient_stencils_match_kernel_differences_exhaustive():
    # every pair of the radius-4 ball with both words non-empty: the
    # stencils chosen per relation must equal the kernel differences at
    # the displaced points
    t = 1.3
    center = Vertex(0, (0, 1) * 5)
    verts = enumerate_ball(center, 4, P2)
    for x in verts:
        for y in verts:
            if distance(x, y) > 8 or not x.word or not y.word:
                continue
            px, py = x.predecessor(), y.predecessor()
            k = kernel(_q(t, x, y), P2)
            kx = kernel(_q(t, px, y), P2)
            ky = kernel(_q(t, x, py), P2)
            kxy = kernel(_q(t, px, py), P2)
            scale = 1e-13 * (abs(k) + abs(kx) + abs(ky) + abs(kxy))
            query = _q(t, x, y)
            assert grad_x(query, P2) == pytest.approx(k - kx, rel=0, abs=scale)
            assert grad_y(query, P2) == pytest.approx(k - ky, rel=0, abs=scale)
            assert grad_xy(query, P2) == pytest.approx(k - kx - ky + kxy, rel=0, abs=scale)


def test_scalar_api_matches_j_value_series():
    # the scalar API reads one jhat row; j_value sums the series term by
    # term. Gradients are differences of J values, so their error is
    # measured against the sum of the magnitudes of the stencil terms.
    ds = (0, 1, 2, 3, 10, 31, 60)
    for q in (2, 3, 5, 7):
        params = TreeParams(q)
        rq = math.sqrt(q)
        for t in (2.0**-3, 0.5, 1.0, 8.0, 32.0, 256.0, 2048.0):
            jv = {d: j_value(t, d, params, 1e-14) for d in
                  {e for d in ds for e in range(max(d - 2, 0), d + 2)}}
            for d in ds:
                rels = {0: (Rel.EQUAL,), 1: (Rel.ANCESTOR, Rel.DESCENDANT)}.get(
                    d, (Rel.ANCESTOR, Rel.DESCENDANT, Rel.INCOMPARABLE))
                for rel in rels:
                    query = KernelQuery(t, d, d, rel)
                    pref = math.exp(-0.5 * d * params.log_q)
                    terms = {
                        "g_up": (jv[d], -jv[d + 1] / rq),
                        "g_side": (jv[d], -jv.get(d - 1, 0.0) / rq),
                        "xy_eq": ((1.0 + 1.0 / q) * jv[0], -2.0 * jv[1] / rq),
                        "xy_ud": ((1.0 + 1.0 / q) * jv[d], -jv[d + 1] / rq,
                                  -jv.get(d - 1, 0.0) / rq),
                        "xy_mid": (jv[d], -2.0 * jv.get(d - 1, 0.0) / rq,
                                   jv.get(d - 2, 0.0) / q),
                    }
                    assert kernel(query, params) == pytest.approx(pref * jv[d], rel=1e-11)
                    for fn, key in zip((grad_x, grad_y, grad_xy), STENCILS[rel]):
                        ref = terms[key]
                        assert fn(query, params) == pytest.approx(
                            pref * sum(ref), rel=0,
                            abs=1e-11 * pref * sum(abs(v) for v in ref))


def test_mixed_gradient_matches_semigroup_convolution():
    t = 1.0
    y = Vertex(0, (0,) * 11)
    ball = enumerate_ball(y, 11, P2)
    for x in (y, Vertex(0, (0,) * 9), Vertex(0, (0,) * 9 + (1,)),
              Vertex(0, (0,) * 10 + (1,))):
        conv = 0.0
        for v in ball:
            if not v.word:
                continue
            conv += (grad_x(_q(t / 2, x, v), P2, 1e-13)
                     * grad_y(_q(t / 2, v, y), P2, 1e-13)
                     * math.exp(level(v) * P2.log_q))
        assert conv == pytest.approx(grad_xy(_q(t, x, y), P2, 1e-13),
                                     rel=2e-6, abs=1e-12)


def test_sibling_mixed_stencil_hits_distance_zero():
    x, y = Vertex(0, (0, 0)), Vertex(0, (0, 1))
    q = _q(1.0, x, y)
    assert q.rel is Rel.INCOMPARABLE and q.d == 2
    expected = (kernel(_q(1.0, x, y), P2)
                - 2.0 * kernel(_q(1.0, x.predecessor(), y), P2)
                + kernel(_q(1.0, x.predecessor(), y.predecessor()), P2))
    assert grad_xy(q, P2) == pytest.approx(expected, rel=1e-11)


def test_heat_semigroup_on_ball():
    t, s = 1.0, 1.0
    y = Vertex(0, (0,) * 12)
    x = Vertex(0, (0,) * 12 + (1, 0))
    ball = enumerate_ball(y, 12, P2)
    conv = 0.0
    for v in ball:
        conv += (kernel(_q(t, x, v), P2, 1e-13)
                 * kernel(_q(s, v, y), P2, 1e-13)
                 * math.exp(level(v) * P2.log_q))
    assert conv == pytest.approx(kernel(_q(t + s, x, y), P2, 1e-13), rel=1e-6)


def test_heat_equation_radial_residual():
    # generator stencil applied to the kernel equals minus its time derivative
    for params in (P2, P3):
        q = params.q
        for t in (1.0, 4.0):
            h = 1e-3 * t
            jm = j_row(t - h, 10, params, 1e-14)
            jp = j_row(t + h, 10, params, 1e-14)
            jc = j_row(t, 10, params, 1e-14)
            dt = (jp - jm) / (2.0 * h)
            lap0 = jc[0] - (q + 1) / (2.0 * math.sqrt(q)) * jc[1]
            assert lap0 + dt[0] == pytest.approx(0.0, abs=1e-5)
            for d in range(1, 9):
                lap = jc[d] - (jc[d - 1] + q * jc[d + 1]) / (2.0 * math.sqrt(q))
                assert lap + dt[d] == pytest.approx(0.0, abs=1e-5)


def test_kernel_positive():
    for t in (0.2, 1.0, 30.0):
        row = j_row(t, 40, P2, 1e-13)
        assert np.all(row > 0.0)
