import math

import numpy as np
import pytest
import scipy.sparse

from flowtree import oracle
from flowtree.heat import j_row
from flowtree.tree import TreeParams, Vertex

P2 = TreeParams(2)
P3 = TreeParams(3)


@pytest.fixture(scope="module")
def model2():
    return oracle.build_ball_model(P2, 6)


@pytest.fixture(scope="module")
def ops2(model2):
    return oracle.assemble_operators(model2)


def test_flow_is_half_grad_star_grad(model2, ops2):
    composed = 0.5 * ops2.grad_star @ ops2.grad
    diff = np.abs(composed - ops2.flow)[model2.interior]
    assert np.max(diff) <= 1e-13


def test_conjugation_identity(model2, ops2):
    b = P2.b
    lhs = ops2.flow
    rhs = (ops2.delta - b * np.eye(model2.size)) / (1.0 - b)
    interior = model2.interior
    assert np.max(np.abs((lhs - rhs)[interior])) <= 1e-13


def test_transition_rows_are_stochastic(model2):
    # jump matrix in the function basis: 1/2 to the predecessor, 1/(2q) to
    # each successor; interior rows sum to one
    q = model2.params.q
    n = model2.size
    rowsums = np.zeros(n)
    for i, v in enumerate(model2.vertices):
        if v.word and v.word[:-1] in model2.index:
            rowsums[i] += 0.5
        for d in range(q):
            child = v.word + (d,)
            if child in model2.index:
                rowsums[i] += 1.0 / (2 * q)
    assert np.allclose(rowsums[model2.interior], 1.0, atol=1e-14)


def test_operator_symmetries(ops2):
    assert np.max(np.abs(ops2.flow - ops2.flow.T)) <= 1e-14
    assert np.array_equal(ops2.grad_star, ops2.grad.T)


def test_spectrum_in_range_and_gap_shrinks():
    gaps = []
    for radius in (4, 6, 8):
        model = oracle.build_ball_model(P2, radius)
        eigs = oracle.spectrum(model)
        assert eigs[0] >= -1e-9 and eigs[-1] <= 2.0 + 1e-9
        gaps.append(eigs[0])
    assert gaps[0] > gaps[1] > gaps[2] > 0.0


def test_radial_top_matches_dense():
    for q, radius in ((2, 4), (2, 6), (3, 4)):
        model = oracle.build_ball_model(TreeParams(q), radius)
        ops = oracle.assemble_operators(model)
        dense_top = float(np.linalg.eigvalsh(ops.adjacency)[-1])
        assert oracle.ball_adjacency_top(q, radius) == pytest.approx(dense_top, abs=1e-10)


def test_delta_bottom_decreases_toward_b():
    for q in (2, 3):
        b = TreeParams(q).b
        mins = [oracle.delta_min_eig(q, r) for r in (6, 8, 10, 12)]
        assert all(m > b for m in mins)
        assert all(a > c for a, c in zip(mins, mins[1:]))
        assert mins[-1] - b < mins[0] - b


def test_heat_matrix_identity_at_zero(model2, ops2):
    H0 = oracle.heat_matrix(model2, 0.0, ops2)
    mu = np.exp(model2.levels * P2.log_q)
    assert np.allclose(np.diag(H0), 1.0 / mu, rtol=1e-12)
    off = H0 - np.diag(np.diag(H0))
    assert np.max(np.abs(off)) <= 1e-12


def test_heat_matrix_exact_identity_on_larger_ball():
    model = oracle.build_ball_model(P2, 8)
    H0 = oracle.heat_matrix(model, 0.0)
    mu = np.exp(model.levels * P2.log_q)
    assert np.array_equal(H0, np.diag(np.diag(H0)))
    assert np.allclose(np.diag(H0), 1.0 / mu, rtol=1e-15)


def test_heat_matrix_matches_orthonormal_route(model2, ops2):
    root_mu = np.exp(0.5 * model2.levels * P2.log_q)
    for t in (0.5, 1.0, 2.0):
        H = oracle.heat_matrix(model2, t, ops2)
        E = oracle.orthonormal_heat_matrix(model2, t, ops2)
        assert np.min(H) > 0.0
        assert np.max(np.abs(H * np.outer(root_mu, root_mu) - E)) <= 1e-13


def test_uniformization_time_domain():
    # t = 0 is the Poisson(0) law: the start column itself
    assert np.array_equal(oracle.radial_heat_profile(2, 0.0, 5), np.eye(6)[0])
    assert np.array_equal(oracle.z_heat_column(0.0, 5), np.eye(6)[0])
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="time must be >= 0"):
            oracle.radial_heat_profile(2, bad, 5)
        with pytest.raises(ValueError, match="time must be >= 0"):
            oracle.z_heat_column(bad, 5)


def test_heat_matrix_semigroup(model2, ops2):
    e1 = oracle.orthonormal_heat_matrix(model2, 1.0, ops2)
    e2 = oracle.orthonormal_heat_matrix(model2, 2.0, ops2)
    assert np.max(np.abs(e1 @ e1 - e2)) <= 1e-10


def test_heat_matrix_matches_analytic_kernel():
    # the centre column of exp(-t flow) by uniformization of the sparse
    # adjacency, flow = I - A / (2 sqrt q)
    model = oracle.build_ball_model(P2, 10)
    pairs = oracle._edges(model)
    half = scipy.sparse.coo_matrix((np.ones(len(pairs)), pairs.T), shape=(model.size,) * 2)
    adj = (half + half.T).tocsr()
    ci = model.index[model.center.word]
    for t in (0.5, 1.0, 2.0):
        column = oracle._uniformization(adj, 2.0 * math.sqrt(P2.q), t, np.eye(model.size)[ci],
                                        min_terms=2 * model.radius + 50)
        jr = j_row(t, 10, P2, 1e-14)
        for i in range(model.size):
            d = model.dist_center[i]
            if d <= 4:
                assert column[i] == pytest.approx(jr[d], rel=1e-6)


def test_finite_section_error_decreases_with_radius():
    # radii whose truncation error (4.1e-6, 1.8e-8, 5.1e-11) stays far
    # above the 3.5e-18 ulp of the value
    errs = []
    t = 1.0
    for radius in (3, 4, 5):
        model = oracle.build_ball_model(P2, radius)
        E = oracle.orthonormal_heat_matrix(model, t)
        ci = model.index[model.center.word]
        jr = j_row(t, 2, P2, 1e-14)
        idx = next(i for i in range(model.size) if model.dist_center[i] == 2)
        errs.append(abs(E[idx, ci] - jr[2]))
    assert errs[0] >= 100.0 * errs[1] and errs[1] >= 100.0 * errs[2]


def test_radial_profile_matches_dense_column():
    model = oracle.build_ball_model(P2, 7)
    E = oracle.orthonormal_heat_matrix(model, 1.5)
    ci = model.index[model.center.word]
    prof = oracle.radial_heat_profile(2, 1.5, 7)
    for i in range(model.size):
        d = model.dist_center[i]
        assert E[i, ci] == pytest.approx(prof[d], rel=1e-10)


def test_z_heat_column_against_library_expm():
    import scipy.linalg

    half = 40
    n = 2 * half + 1
    w = np.zeros((n, n))
    for i in range(n - 1):
        w[i, i + 1] = w[i + 1, i] = 0.5
    for t in (0.8, 6.0):
        lib = (scipy.linalg.expm(t * w) * math.exp(-t))[half:, half]
        col = oracle.z_heat_column(t, half)
        assert np.allclose(col, lib, rtol=1e-8, atol=1e-13)


def test_walk_reproducibility_and_mass():
    config = oracle.WalkConfig(q=2, t=2.0, n_walks=20_000, seed=11)
    a = oracle.mc_heat(config)
    b = oracle.mc_heat(config)
    assert a.hits == b.hits
    assert a.mean_level_offset == b.mean_level_offset
    assert sum(a.hits.values()) == config.n_walks
    # zero level drift within four standard errors
    assert abs(a.mean_level_offset) <= 4.0 * a.stderr_level_offset


def test_walk_against_analytic_kernel():
    config = oracle.WalkConfig(q=2, t=4.0, n_walks=200_000, seed=5)
    targets = [oracle.RelState(0, ()), oracle.RelState(1, ()),
               oracle.RelState(0, (1,))]
    result = oracle.mc_heat(config, targets)
    for tgt in targets:
        est, err = result.estimate(tgt)
        exact = oracle.analytic_arrival_probability(tgt, 4.0, P2)
        assert abs(est - exact) <= 4.0 * err


def test_walk_config_validation():
    with pytest.raises(ValueError):
        oracle.WalkConfig(q=1, t=1.0, n_walks=10, seed=0)
    with pytest.raises(ValueError):
        oracle.WalkConfig(q=2, t=0.0, n_walks=10, seed=0)


def test_dense_guard():
    with pytest.raises(MemoryError):
        model = oracle.build_ball_model(P2, 8, Vertex(0, (0,) * 8))
        oracle.assemble_operators(model, max_dense=100)


def _check_spectrum(model):
    ops = oracle.assemble_operators(model)
    expected = np.linalg.eigvalsh(ops.flow)
    eigs = oracle.spectrum(model)
    assert eigs.shape == expected.shape
    assert np.max(np.abs(eigs - expected)) <= 1e-13
    # eigenvalue 1 has the multiplicity of the adjacency kernel; at least
    # |n_even - n_odd| of its copies come out exactly
    n_odd = int(np.sum(model.dist_center % 2))
    ones = np.abs(eigs - 1.0) <= 1e-9
    assert np.sum(ones) == model.size - np.linalg.matrix_rank(ops.adjacency)
    assert np.sum(eigs == 1.0) >= abs(model.size - 2 * n_odd) > 0


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("radius", [4, 5])
def test_spectrum_equals_eigvalsh_of_assembled_flow(q, radius):
    _check_spectrum(oracle.build_ball_model(TreeParams(q), radius))


def test_spectrum_off_centre_and_766_vertex_balls():
    _check_spectrum(oracle.build_ball_model(P3, 4, Vertex(0, (1, 0, 2, 1, 0, 1))))
    model = oracle.build_ball_model(P2, 8)
    assert model.size == 766
    _check_spectrum(model)


def _loop_walk(config):
    """Jump-by-jump reference walk, one Python loop per walk."""
    q, t = config.q, config.t
    rng = np.random.default_rng(config.seed)
    jumps = rng.poisson(t, config.n_walks)
    draws = rng.random(int(jumps.sum()))
    hits = {}
    pos = 0
    lvl_sum = 0.0
    lvl_sq = 0.0
    for count in jumps:
        a = 0
        w = []
        for _ in range(count):
            u = draws[pos]
            pos += 1
            if u < 0.5:
                if w:
                    w.pop()
                else:
                    a += 1
            else:
                digit = min(int((u - 0.5) * 2.0 * q), q - 1)
                if w or a == 0:
                    w.append(digit)
                elif digit == 0:
                    a -= 1
                else:
                    w.append(digit)
        key = (a, tuple(w))
        hits[key] = hits.get(key, 0) + 1
        off = a - len(w)
        lvl_sum += off
        lvl_sq += off * off
    n = config.n_walks
    mean = lvl_sum / n
    var = max(lvl_sq / n - mean * mean, 0.0)
    return hits, mean, math.sqrt(var / n)


@pytest.mark.parametrize("q,t,n_walks", [(2, 0.3, 3000), (2, 4.0, 3000), (3, 1.0, 3000),
                                         (3, 100.0, 400), (5, 10.0, 2000),
                                         (300, 30.0, 1000), (300, 100.0, 400)])
@pytest.mark.parametrize("seed", [0, 7, 123])
def test_walk_matches_jump_loop(q, t, n_walks, seed):
    config = oracle.WalkConfig(q=q, t=t, n_walks=n_walks, seed=seed)
    hits, mean, stderr = _loop_walk(config)
    result = oracle.mc_heat(config)
    assert result.hits == hits
    assert result.mean_level_offset == mean
    assert result.stderr_level_offset == stderr
    if q == 300 and t == 100.0:
        # words longer than seven base-300 digits span two int64 chunks
        assert max(len(word) for _, word in hits) > 7
