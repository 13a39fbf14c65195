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
