import math

import numpy as np
import pytest

from flowtree import sums
from flowtree.heat import KernelQuery, grad_x, grad_xy, grad_y, kernel
from flowtree.sums import ExpWeight, PolyWeight, SumSpec, fit_decay
from flowtree.tree import Rel, TreeParams, Vertex, distance, enumerate_ball, level, pair_strata

P2 = TreeParams(2)
T_GRID = np.array([1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0])


def test_spec_validation():
    with pytest.raises(ValueError):
        SumSpec("bogus", 1.0)
    with pytest.raises(ValueError):
        SumSpec("H", -1.0)
    with pytest.raises(ValueError):
        SumSpec("H", 0.5, eps=1.0)  # weighted estimates need t >= 1
    SumSpec("H", 0.5)  # mass case is fine at small times


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 0.0])
def test_nonfinite_time_rejected(t):
    with pytest.raises(ValueError, match="time must be positive"):
        SumSpec("H", t)
    with pytest.raises(ValueError, match="time must be positive"):
        sums.scan(P2, t)


def test_mass_and_monotonicity_in_eps():
    assert sums.weighted_sum(SumSpec("H", 2.0), P2, 1e-12) == pytest.approx(1.0, abs=1e-10)
    for kind in ("H", "gradX", "gradXY"):
        vals = [sums.weighted_sum(SumSpec(kind, 4.0, eps), P2) for eps in (0.0, 0.5, 1.0)]
        assert vals[0] <= vals[1] <= vals[2]


def _ancestor_ray_sum(t: float, eps: float, params: TreeParams, kmax: int) -> float:
    """Direct sum of |grad_x H_t(x, y)| exp(eps d / sqrt t) mu(x) over x >= y."""
    y = Vertex(0, (0,) * kmax)
    total = 0.0
    for k in range(kmax + 1):
        x = Vertex(0, y.word[: kmax - k])
        query = KernelQuery.from_vertices(t, x, y)
        total += (abs(grad_x(query, params)) * math.exp(eps * query.d / math.sqrt(t))
                  * float(params.q) ** level(x))
    return total


def test_split_parts_sum_to_total():
    parts = {}
    for t in 4.0 ** np.arange(9):
        part_up, part_rest = sums.split_gradient_sum(t, 1.0, P2)
        total = sums.weighted_sum(SumSpec("gradX", t, 1.0), P2)
        assert part_up + part_rest == pytest.approx(total, rel=1e-12)
        parts[t] = (part_up, part_rest)
    # each half carries the full 1/sqrt(t) decay on its own: local log-log
    # slope over the last two grid points
    for i in (0, 1):
        slope = math.log(parts[4.0**8][i] / parts[4.0**7][i]) / math.log(4.0)
        assert slope == pytest.approx(-0.5, abs=0.03)
    # the comparable half runs over the ancestor ray of the base vertex
    for t in (1.0, 16.0):
        kmax = 12 * math.ceil(math.sqrt(t)) + 30
        assert parts[t][0] == pytest.approx(_ancestor_ray_sum(t, 1.0, P2, kmax), rel=1e-10)


def test_signed_gradient_sum_vanishes():
    # mass conservation: the signed first-gradient column sum is zero
    for t in (0.5, 1.0, 8.0, 128.0):
        res = sums.scan(P2, t, ExpWeight(0.0), 1e-12, signed=True)
        assert res.totals["gradX"] == pytest.approx(0.0, abs=1e-11)


def test_scan_tail_bounds_are_small():
    res = sums.scan(P2, 16.0, ExpWeight(0.25), 1e-10)
    assert res.tail <= 0.5e-10
    assert res.row_slack <= 1e-12


def test_base_point_independence_against_ball():
    # brute force around an off-level base vertex, truncated at radius 8,
    # against the stratum engine's per-radius terms
    t, eps = 2.0, 0.5
    rate = eps / math.sqrt(t)
    y = Vertex(5, (0, 1, 0, 1, 1, 0, 0, 1))
    ball = enumerate_ball(y, 8, P2)
    brute = {kind: 0.0 for kind in sums.KINDS}
    fns = {"H": kernel, "gradX": grad_x, "gradY": grad_y, "gradXY": grad_xy}
    for x in ball:
        d = distance(x, y)
        w = math.exp(rate * d) * math.exp(level(x) * P2.log_q)
        query = KernelQuery.from_vertices(t, x, y)
        for kind, fn in fns.items():
            brute[kind] += w * abs(fn(query, P2, 1e-13))
    res = sums.scan(P2, t, ExpWeight(rate), 1e-12)
    for kind in sums.KINDS:
        partial = float(np.sum(res.per_k[kind][:9]))
        assert brute[kind] == pytest.approx(partial, rel=1e-9), kind


def test_horocycle_profile_partitions_total():
    res = sums.scan(P2, 4.0, ExpWeight(0.5), 1e-11)
    for kind in sums.KINDS:
        assert float(np.sum(res.offsets[kind])) == pytest.approx(
            res.totals[kind], rel=1e-12)
        assert float(np.max(res.offsets[kind])) <= res.totals[kind]


@pytest.mark.parametrize("q", [2, 3])
def test_offsets_match_brute_force_over_pair_strata(q):
    # every level-offset bucket against kernels summed over the two-point
    # strata of the whole certified window around a level-0 base vertex
    params = TreeParams(q)
    t, rate = 1.0, 0.3
    res = sums.scan(params, t, ExpWeight(rate))
    k = res.k_stop
    assert k <= 15
    base = Vertex(k, (0,) * k)
    fns = {"H": kernel, "gradX": grad_x, "gradY": grad_y, "gradXY": grad_xy}
    brute = {kind: np.zeros(2 * k + 1) for kind in sums.KINDS}
    for (d, above, _, _, lx), count in pair_strata(base, base, k, params).items():
        if above:
            rel = Rel.EQUAL if d == 0 else Rel.ANCESTOR
        else:
            rel = Rel.DESCENDANT if lx == -d else Rel.INCOMPARABLE
        query = KernelQuery(t, d, lx, rel)
        w = count * math.exp(rate * d) * float(q) ** lx
        for kind, fn in fns.items():
            brute[kind][lx + k] += w * abs(fn(query, params, 1e-13))
    for kind in sums.KINDS:
        scale = float(np.max(res.offsets[kind]))
        assert np.max(np.abs(brute[kind] - res.offsets[kind])) <= 1e-12 * scale, kind


def test_horocycle_sup_examples():
    for t in T_GRID:
        sup, arg = sums.horocycle_sup("H", float(t), 0.0, P2)
        assert sup * math.sqrt(t) <= 1.0
        assert abs(arg) <= 2


def test_restricted_sum_by_offset():
    spec = SumSpec("H", 4.0, 0.0, offset=3)
    val = sums.weighted_sum(spec, P2)
    offs, profile, _ = sums.horocycle_profile("H", 4.0, 0.0, P2)
    assert val == pytest.approx(float(profile[list(offs).index(3)]))
    assert sums.weighted_sum(SumSpec("H", 4.0, 0.0, offset=10**6), P2) == 0.0


def test_mixed_sum_dominated_by_half_time_gradient_product():
    for t in (2.0, 16.0, 256.0):
        for eps in (0.0, 1.0):
            rate = eps / math.sqrt(t)
            mixed = sums.scan(P2, t, ExpWeight(rate), 1e-11).totals["gradXY"]
            half = sums.scan(P2, t / 2.0, ExpWeight(rate), 1e-11)
            assert mixed <= half.totals["gradX"] * half.totals["gradY"] * (1 + 1e-9)


def test_fit_decay_basics():
    ts = np.array([1.0, 4.0, 16.0, 64.0])
    fit = fit_decay(ts, 3.0 / np.sqrt(ts), 0.5)
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    assert fit.constant == pytest.approx(3.0)
    assert fit.spread == pytest.approx(1.0)
    with pytest.raises(ValueError):
        fit_decay(ts[:3], np.ones(3), 0.0)
    with pytest.raises(ValueError):
        fit_decay(ts, np.array([1.0, 1.0, -1.0, 1.0]), 0.0)


def test_fit_windows_on_sweep():
    report = sums.sweep([2, 3], list(T_GRID), [0.0, 1.0], tol=1e-10)
    targets = {"H": 0.0, "gradX": -0.5, "gradY": -0.5, "gradXY": -1.0}
    for kind, target in targets.items():
        s = report.summary[f"{kind}/none"]
        assert abs(s["fitted_exponent"] - target) <= 0.1, kind
        assert s["max_series_spread"] <= 3.0
        r = report.summary[f"{kind}/horocycle"]
        assert abs(r["fitted_exponent"] - s["fitted_exponent"] + 0.5) <= 0.1


def test_q_uniformity():
    spread, consts = sums.q_uniformity("H", 0.0, T_GRID, [2, 3, 5])
    assert spread == pytest.approx(1.0, abs=1e-9)
    assert all(c == pytest.approx(1.0, abs=1e-9) for c in consts.values())
    spread, _ = sums.q_uniformity("gradX", 1.0, T_GRID, [2, 3, 5, 7])
    assert spread <= 4.0


def test_poly_weight_scan():
    # polynomial column weights stay bounded across dyadic scales
    vals = []
    for n in (0, 4, 8):
        t = 2.0**n * 1.5
        w = PolyWeight(2.0 ** (-n / 2.0), 2.0)
        vals.append(sums.scan(P2, t, w, 1e-9).totals["gradX"] * math.sqrt(t))
    assert max(vals) / min(vals) <= 4.0


def test_sweep_report_rows_and_parallel_determinism():
    seq = sums.sweep([2], [1.0, 4.0, 16.0, 64.0], [0.0], tol=1e-9)
    par = sums.sweep([2], [1.0, 4.0, 16.0, 64.0], [0.0], tol=1e-9, jobs=4)
    assert seq.rows() == par.rows()
    assert len(seq.rows()) == 4 * len(sums.KINDS) * 2  # restricted doubles the cells
    assert all(len(r) == len(sums.SweepReport.COLUMNS) for r in seq.rows())
