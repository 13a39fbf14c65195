import math

import numpy as np
import pytest

from flowtree import acceptance, sums
from flowtree.heat import (KernelQuery, grad_x, grad_xy, grad_y, jhat_from_z_rows, kernel,
                           row_top, scaled_stencils)
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


@pytest.mark.parametrize("t, rate", [(4096.0, 0.7), (4096.0, 0.3), (64.0, 2.0)])
def test_overflowing_weight_raises(t, rate):
    # the weight outgrows the kernel, so the sums are not finite: the scan
    # raises and names the time and the weight
    with pytest.raises(OverflowError, match=rf"t = \[{t}\].*ExpWeight\(rate={rate}\)"):
        sums.scan(P2, t, ExpWeight(rate))


def test_overflowing_weighted_sum_raises_large_finite_returns():
    with pytest.raises(OverflowError):
        sums.weighted_sum(SumSpec("H", 4096.0, eps=44.8), P2)
    res = sums.scan(P2, 4096.0, ExpWeight(0.2))
    assert 1e37 < res.totals["H"] < 1e39 and math.isfinite(res.totals["gradXY"])
    assert 0.0 < res.tail < 1e-9


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
    # the stopping radius rides next to its tail bound
    assert sums.SweepReport.COLUMNS[6:8] == ("tail_bound", "k_stop")
    for c in seq.cells:
        assert c.k_stop == sums.scan(TreeParams(c.q), c.t, ExpWeight(0.0), 1e-9).k_stop


def _rel_close(a, b, rel):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.all(np.abs(a - b) <= rel * np.abs(b)), (a, b)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("weight", [ExpWeight(0.0), ExpWeight(0.7), PolyWeight(0.3, 2.0)])
@pytest.mark.parametrize("signed", [False, True])
def test_scan_many_matches_scan(q, weight, signed):
    # batches of panel-like nodes, plus one mixing t = 1.3 and t = 300: at
    # rate 0.7 the t = 300 row needs a larger cap than the shared first one
    params = TreeParams(q)
    batches = [[1.3, 300.0], list(1.0 + np.polynomial.legendre.leggauss(16)[0] / 2.0),
               [0.05, 7.0, 64.0]]
    for ts in batches:
        many = sums.scan_many(params, ts, weight, 1e-10, signed)
        assert len(many) == len(ts)
        for t, res in zip(ts, many):
            one = sums.scan(params, t, weight, 1e-10, signed)
            assert res.k_stop == one.k_stop and res.tail == one.tail
            _rel_close(res.row_slack, one.row_slack, 1e-14)
            for kind in sums.KINDS:
                _rel_close(res.totals[kind], one.totals[kind], 1e-14)
                _rel_close(res.offsets[kind], one.offsets[kind], 1e-14)
                _rel_close(res.per_k[kind], one.per_k[kind], 1e-14)
            for kind, parts in one.grad_split.items():
                _rel_close(res.grad_split[kind], parts, 1e-14)
    if weight == ExpWeight(0.7):
        # in the mixed batch the t = 300 cut lies past the first window of
        # candidate radii, and the t = 1.3 row reads a small prefix of the
        # one row block sized for t = 300
        cap = int(72 + 10.0 * math.sqrt(300.0 + 1.0))
        k_small, k_large = (r.k_stop for r in sums.scan_many(params, [1.3, 300.0], weight))
        assert k_large > cap and 20 * k_small < k_large


def test_hopeless_cuts_raise_before_any_row(monkeypatch):
    monkeypatch.setattr(sums, "heat_z_rows", lambda *args: pytest.fail("rows were computed"))
    with pytest.raises(RuntimeError, match="no k_stop <= 4,000,000"):
        sums.scan(P2, 1e12)
    # the weight turns infinite before any radius certifies the tail
    with pytest.raises(OverflowError, match=r"t = \[1048576.0\].*ExpWeight\(rate=0.7\)"):
        sums.scan(P2, 2.0**20, ExpWeight(0.7))


def _terms_to(params, t, weight, kmax, tol):
    """Actual |terms| of the four kinds for radii 0..kmax, from a row
    computed out to kmax on its own."""
    ts = np.array([t])
    hz = sums.heat_z_rows(ts, row_top(kmax + 2, params, tol * 1e-3) + 2)
    jhat, _ = jhat_from_z_rows(ts, hz, kmax + 2, params, tol * 1e-3)
    st = {key: np.abs(a[:, : kmax + 1]) for key, a in scaled_stencils(jhat, params).items()}
    return {kind: parts[0][0] for kind, parts in sums.stratum_terms(st, weight, params, "test")}


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("t", [0.05, 1.0, 300.0, 4.0**8, 2.0**20])
def test_a_priori_cut_certifies_the_tail(q, t):
    # the reported tail bounds the actual mass past k_stop of every kind;
    # rate 0.7 makes the weighted sums infinite past t = 300, so it is
    # covered where they are finite
    params, tol = TreeParams(q), 1e-10
    weights = [ExpWeight(0.0), ExpWeight(1.0 / math.sqrt(t)), PolyWeight(0.3, 2.0)]
    if t <= 300.0:
        weights.append(ExpWeight(0.7))
    for weight in weights:
        res = sums.scan(params, t, weight, tol)
        k = res.k_stop
        assert 0.0 < res.tail <= 0.5 * tol, weight
        # out to 2 k_stop, short of radius 1014 where exp(0.7 k) overflows
        terms = _terms_to(params, t, weight, min(2 * k, 1000) if weight == ExpWeight(0.7)
                          else 2 * k, tol)
        for kind, v in terms.items():
            assert math.fsum(v[k + 1:]) <= res.tail, (weight, kind)
        # negative control: a cut at half the radius leaves real mass
        assert max(math.fsum(v[k // 2 + 1:]) for v in terms.values()) > tol, weight


def test_one_right_sized_row_block_per_scan(monkeypatch):
    # over the criterion-5 grid, each scan computes one heat_z row block,
    # exactly as wide as the jhat row of its k_stop needs
    widths = []

    def counting(ts, nmax):
        rows = real(ts, nmax)
        widths.append(rows.shape[1])
        return rows

    real = sums.heat_z_rows
    monkeypatch.setattr(sums, "heat_z_rows", counting)
    tol = 1e-10
    for q in (2, 3):
        for eps in acceptance.EPS_GRID:
            for t in acceptance.T_GRID:
                before = len(widths)
                res = sums.scan(TreeParams(q), t, ExpWeight(eps / math.sqrt(t)), tol)
                assert len(widths) == before + 1
                assert widths[-1] == row_top(res.k_stop + 2, TreeParams(q), tol * 1e-3) + 3
