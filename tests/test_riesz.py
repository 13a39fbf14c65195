import math

import numpy as np
import pytest

from flowtree import riesz, sums
from flowtree.riesz import RieszQuery
from flowtree.tree import Rel, TreeParams, Vertex, distance, enumerate_ball, level, relation

P2 = TreeParams(2)
P3 = TreeParams(3)


def test_query_validation():
    with pytest.raises(ValueError):
        RieszQuery(1, 0, Rel.ANCESTOR)
    with pytest.raises(ValueError):
        RieszQuery(0, 0, Rel.INCOMPARABLE)
    RieszQuery(0, 0, Rel.EQUAL)


def test_diagonal_kernel_finite_with_error_bound():
    value, err = riesz.riesz_kernel_with_error(RieszQuery(0, 0, Rel.EQUAL), P2, 1e-9)
    assert math.isfinite(value) and value > 0.0
    assert 0.0 < err < 1e-7


def test_kernel_decays_in_distance():
    rows = riesz.kernel_rows(P2, 30, 1e-9).total()
    up, side = rows[:31], rows[31:]
    for d in range(2, 28):
        assert abs(up[d + 2]) <= abs(up[d])
        assert abs(side[d + 2]) <= abs(side[d])


def test_quadrature_density_stability():
    coarse = riesz.kernel_rows(P2, 8, 1e-7).total()
    fine = riesz.kernel_rows(P2, 8, 1e-10).total()
    assert np.max(np.abs(coarse - fine)) <= 1e-7


def test_decomposition_reconstructs_kernel():
    # independent block integrations rebuild the one-shot kernel value
    query = RieszQuery(3, 1, Rel.ANCESTOR)
    total, err = riesz.riesz_kernel_with_error(query, P2, 1e-10)
    rows = riesz.kernel_rows(P2, 32, 1e-10)
    # r0 is a reduced row; block_kernel_value already carries q^(-s/2)
    rebuilt = (math.exp(-0.5 * query.s * P2.log_q) * float(rows.r0[query.d])
               + sum(riesz.block_kernel_value(n, query, P2, 1e-10, dmax=32)
                     for n in range(len(rows.blocks))))
    assert rebuilt == pytest.approx(total, abs=5e-10 + err)


def test_small_time_column_sums():
    col, transposed = riesz.small_time_column_sums(P2, 1e-8)
    assert 0.0 < col <= 4.0
    assert 0.0 < transposed <= 4.0
    signed = riesz.small_time_signed_column_sum(P2, 1e-8)
    assert abs(signed) <= 1e-7


def test_kn_sums_bounded_and_monotone_in_eps():
    vals0 = [riesz.kn_weighted_sum(n, 0.0, P2, 3e-5) for n in range(0, 13, 3)]
    vals1 = [riesz.kn_weighted_sum(n, 1.0, P2, 3e-5) for n in range(0, 13, 3)]
    assert max(vals0) / min(vals0) <= 3.0
    assert max(vals1) / min(vals1) <= 3.0
    assert all(a <= b for a, b in zip(vals0, vals1))


def test_kn_poly_weight_bounded():
    vals = [riesz.kn_weighted_sum(n, 0.0, P2, 3e-5,
                                  weight=sums.PolyWeight(riesz.CZ_SCALE**n,
                                                         riesz.CZ_WEIGHT_EXPONENT))
            for n in (0, 3, 6, 9, 12)]
    assert max(vals) / min(vals) <= 4.0


def test_kn_block_zero_fubini_bound():
    val = riesz.kn_weighted_sum(0, 0.0, P2, 3e-5)
    grid = np.linspace(1.0, 2.0, 5)
    grad_max = max(sums.scan(P2, float(t), sums.ExpWeight(0.0), 1e-8).totals["gradX"]
                   for t in grid)
    assert val <= grad_max / math.sqrt(math.pi) * 1.05


def test_kn_grad_block_decay():
    vals = np.array([riesz.kn_grad_sum(n, 0.0, P2, 3e-5) for n in range(2, 13)])
    slope = float(np.polyfit(np.arange(2, 13) * math.log(2.0), np.log(vals), 1)[0])
    assert -0.6 <= slope <= -0.4
    val0 = riesz.kn_grad_sum(0, 0.0, P2, 3e-5)
    grid = np.linspace(1.0, 2.0, 5)
    mixed_max = max(sums.scan(P2, float(t), sums.ExpWeight(0.0), 1e-8).totals["gradXY"]
                    for t in grid)
    assert val0 <= mixed_max / math.sqrt(math.pi) * 1.05


def test_lipschitz_trivial_and_telescoped():
    y = Vertex(0, (0, 1) * 8)
    lhs, bound = riesz.lipschitz_check(1, y, y, P2, 1e-8, radius=10)
    assert lhs == pytest.approx(0.0, abs=1e-12)
    z = y.predecessor()
    assert distance(y, z) == 1
    lhs, bound = riesz.lipschitz_check(1, y, z, P2, 1e-8, radius=12)
    assert lhs <= bound + 1e-6
    # y.word[-2] is 0, so a final digit 1 branches off two levels up
    z3 = Vertex(0, y.word[:-2] + (1,))
    assert distance(y, z3) == 3
    lhs3, bound3 = riesz.lipschitz_check(1, y, z3, P2, 1e-8, radius=12)
    assert bound3 == pytest.approx(3.0 * bound, rel=1e-9)
    assert lhs3 <= bound3 + 1e-6


def test_lipschitz_strata_match_enumerated_ball():
    # reference: the column difference summed vertex by vertex over the ball
    y = Vertex(0, (0, 1) * 5)
    z = Vertex(0, y.word[:-3] + (0, 1))
    radius, n = 8, 1
    dmax = radius + distance(y, z) + 2
    brute = 0.0
    for x in enumerate_ball(y, radius, P2):
        ky, kz = (riesz.block_kernel_value(
            n, RieszQuery(distance(x, b), level(x) + level(b), relation(x, b)),
            P2, 1e-8, dmax) for b in (y, z))
        brute += abs(ky - kz) * 2.0 ** level(x)
    lhs, _ = riesz.lipschitz_check(n, y, z, P2, 1e-8, radius=radius)
    assert lhs == pytest.approx(brute, rel=1e-12)


def test_weak_type_probe_matches_enumerated_ball():
    # reference: level sets of kernel entries measured vertex by vertex,
    # on a lambda grid that is not dyadic
    lambdas = np.geomspace(2.0**-6.3, 2.0**1.7, 17)
    radius = 8
    base = Vertex(radius, (0,) * radius)  # level 0
    values, masses = [], []
    for x in enumerate_ball(base, radius, P2):
        query = RieszQuery(distance(x, base), level(x), relation(x, base))
        values.append(abs(riesz.riesz_kernel(query, P2, 1e-9)))
        masses.append(2.0 ** level(x))
    values, masses = np.array(values), np.array(masses)
    brute = max(lam * float(np.sum(masses[values > lam])) for lam in lambdas)
    assert riesz.weak_type_probe(lambdas, radius, P2, 1e-9) == pytest.approx(brute, rel=1e-12)


def test_weak_type_probe_stability_and_base_independence():
    lambdas = [2.0**e for e in range(-10, 5)]
    sups = [riesz.weak_type_probe(lambdas, r, P2, 1e-9) for r in (15, 20, 25)]
    assert max(sups) / min(sups) <= 2.0
    a = riesz.weak_type_probe(lambdas, 20, P2, 1e-9, y=Vertex(0, (0,) * 4))
    b = riesz.weak_type_probe(lambdas, 20, P2, 1e-9, y=Vertex(3, (1, 0)))
    assert a == b
    s3 = riesz.weak_type_probe(lambdas, 20, P3, 1e-9)
    ratio = max(a, s3) / min(a, s3)
    assert ratio <= 4.0


def test_l2_gradient_identity_on_ball():
    # the quadratic form of the generator is half the squared gradient norm
    from flowtree import oracle

    model = oracle.build_ball_model(P2, 7)
    ops = oracle.assemble_operators(model)
    rng = np.random.default_rng(7)
    inner = model.dist_center <= model.radius - 2
    for _ in range(5):
        f = np.where(inner, rng.standard_normal(model.size), 0.0)
        quad = f @ ops.flow @ f
        grad_norm = float(np.sum((ops.grad @ f) ** 2))
        assert quad == pytest.approx(0.5 * grad_norm, rel=1e-12)
        half_power = ops.flow @ f  # sanity: generator symmetric on the support
        assert f @ half_power == pytest.approx(quad)


def _recording(f):
    calls = []

    def g(ts):
        calls.append(np.array(ts))
        return f(ts)
    return g, calls


def _composite_gauss(f, a, b, panels):
    x, w = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(a, b, panels + 1)
    return sum(0.5 * (hi - lo) * (w @ f(0.5 * (lo + hi) + 0.5 * (hi - lo) * x))
               for lo, hi in zip(edges[:-1], edges[1:]))


def test_integrate_rows_calls_once_per_panel_and_is_exact_to_degree_31():
    powers = np.array([0, 1, 17, 31])
    f, calls = _recording(lambda ts: np.power.outer(ts, powers))
    a, b = 0.0, 1.0
    value, err = riesz._integrate_rows(f, a, b, 1e-12)
    exact = (b ** (powers + 1) - a ** (powers + 1)) / (powers + 1)
    assert np.max(np.abs(value - exact) / exact) <= 1e-14
    assert err <= 1e-12
    # one panel, then two: the first comparison already passes
    panels = [(a, b), (a, 0.5), (0.5, b)]
    assert len(calls) == len(panels)
    for nodes, (lo, hi) in zip(calls, panels):
        assert nodes.shape == (16,)
        assert np.all((nodes > lo) & (nodes < hi))


def test_integrate_rows_raises_at_panel_budget():
    # a kink defeats Gauss convergence, so the doubling runs into the budget
    kink = lambda ts: np.abs(ts - 0.3)[:, None] * np.array([1.0, -2.0])
    f, calls = _recording(kink)
    with pytest.raises(RuntimeError, match="256 panels"):
        riesz._integrate_rows(f, 0.0, 1.0, 1e-15)
    assert riesz.MAX_PANELS == 256
    assert len(calls) == sum(2**i for i in range(9))  # 1 + 2 + ... + 256


def test_lipschitz_distance_one_identity_whole_tree():
    # for z the predecessor of y, K_n(x, y) - K_n(x, z) summed in |.| over
    # the tree is the second-slot gradient column sum; the radius-40 ball
    # holds all but a negligible part of it for blocks n <= 2
    y = Vertex(0, (0, 1) * 20)
    z = y.predecessor()
    for n in (0, 1, 2):
        lhs, bound = riesz.lipschitz_check(n, y, z, P2, radius=40)
        assert lhs == pytest.approx(bound, rel=1e-10)


def test_block_column_sum_bounds_enumerated_ball():
    # vertex by vertex over the radius-10 ball the column sum falls short
    # of kn_weighted_sum by the mass outside the ball plus the a priori
    # truncation the sum adds (at most tol/100); the outside mass is
    # bounded independently by the scans' per-radius terms past 10,
    # integrated over the block with the absolute value inside.
    # Measured: excess 2.24697e-8, outside bound 2.24597e-8, truncation 1.0e-11
    y = Vertex(0, (0, 1) * 5)
    radius, tol = 10, 1e-9
    brute = sum(abs(riesz.block_kernel_value(
        0, RieszQuery(distance(x, y), level(x) + level(y), relation(x, y)), P2, tol))
        * 2.0 ** level(x) for x in enumerate_ball(y, radius, P2))
    col = riesz.block_column_sum(0, "gradX", sums.ExpWeight(0.0), P2, tol)
    assert riesz.kn_weighted_sum(0, 0.0, P2, tol) == col.value
    assert col.truncation <= 1e-2 * tol

    def outside(ts):
        return np.array([[t**-0.5 * (float(np.sum(r.per_k["gradX"][radius + 1:]))
                                     + r.tail + r.row_slack) / math.sqrt(math.pi)]
                         for t, r in zip(ts, sums.scan_many(P2, ts, tol=1e-14))])

    beyond = float(_composite_gauss(outside, 1.0, 2.0, 4)[0])
    assert col.value >= brute - 1e-12
    assert col.value - brute <= beyond + col.truncation + 1e-12


def _small_time_term_bounds(weight, lo: int, hi: int) -> float:
    """fsum over k = lo..hi-1 of the integrated term bound of the small-time
    piece, (16/sqrt(pi))(k+1)(k+4) w(k) 2^(-m) / (m! (m - 1/2)), m = k - 1."""
    return math.fsum(16.0 / math.sqrt(math.pi) * (k + 1) * (k + 4)
                     * math.exp(float(weight.log_at(k))) * 2.0 ** -(k - 1)
                     / (math.factorial(k - 1) * (k - 1.5)) for k in range(lo, hi))


@pytest.mark.parametrize("weight, radius, bound", [
    (sums.ExpWeight(0.0), 13, 3.9824750063368806e-12),
    (sums.ExpWeight(1.0), 19, 2.020657778299383e-12),
    (sums.PolyWeight(0.5, 2.0), 15, 4.1623355369175106e-13)])
def test_small_time_radius_pinned_against_fsum(weight, radius, bound):
    tol = 1e-11
    r, b = riesz._radius(riesz.SMALL_TIME, weight, tol, 0)
    assert r == radius and b == pytest.approx(bound, rel=1e-12)
    # the geometric bound majorizes the term bounds past the radius, within
    # 1 %, and one more term would carry them above tol
    past = _small_time_term_bounds(weight, r + 1, r + 100)
    assert past <= b <= 1.01 * past
    assert _small_time_term_bounds(weight, r, r + 100) > tol
