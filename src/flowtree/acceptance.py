"""Desk-scale verification suite: one check per acceptance criterion.

Each check returns a :class:`CheckResult` with the measured quantities it
judged, so the command line can print one pass/fail line per criterion
and emit the numbers alongside. The checks are self-contained and run in
a few minutes total on a laptop; the heaviest items are the Monte Carlo
walk and the dyadic block quadratures.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import oracle, riesz, sums
from .heat import j_row, jhat_row
from .sums import CLAIMED_POWERS, KINDS
from .tree import TreeParams, Vertex, distance
from .zline import heat_z, heat_z_row, phi, recurrence_residual

T_GRID = (1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0)
EPS_GRID = (0.0, 1.0)


@dataclass
class CheckResult:
    cid: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    seconds: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        core = ", ".join(f"{k}={v}" for k, v in self.details.items()
                         if not isinstance(v, (list, dict)))
        return f"{status} criterion {self.cid:2d} [{self.name}] {core} ({self.seconds:.1f}s)"


def _fmt(x: float) -> float:
    return float(f"{x:.6g}")


@lru_cache(maxsize=8)
def _sweep_cached(q_list: tuple, t_grid: tuple, eps_list: tuple) -> sums.SweepReport:
    return sums.sweep(list(q_list), list(t_grid), list(eps_list), tol=1e-10)


def check_stochasticity(_cfg=None) -> CheckResult:
    worst = 0.0
    for q in (2, 3, 5):
        params = TreeParams(q)
        for t in (0.5, 1.0, 4.0, 16.0):
            val = sums.weighted_sum(sums.SumSpec("H", t), params, tol=1e-12)
            worst = max(worst, abs(val - 1.0))
    return CheckResult(1, "stochasticity", worst <= 1e-8,
                       {"max_abs_deviation": _fmt(worst), "tolerance": 1e-8})


def check_z_oracle(_cfg=None) -> CheckResult:
    worst = 0.0
    for t in (0.5, 1.0, 5.0, 20.0):
        col = oracle.z_heat_column(t, 100)
        for n in range(51):
            ref = col[n]
            worst = max(worst, abs(heat_z(t, n) - ref) / ref)
    return CheckResult(2, "line-kernel matrix oracle", worst <= 1e-8,
                       {"max_rel_error": _fmt(worst), "tolerance": 1e-8})


def check_recurrence(_cfg=None) -> CheckResult:
    worst = 0.0
    for t in (0.1, 1.0, 10.0, 100.0):
        for j in range(1, 51):
            worst = max(worst, abs(recurrence_residual(t, j)))
    return CheckResult(3, "two-step recurrence", worst <= 1e-10,
                       {"max_abs_residual": _fmt(worst), "tolerance": 1e-10})


def check_tree_oracle(_cfg=None) -> CheckResult:
    worst = 0.0
    for q in (2, 3):
        params = TreeParams(q)
        for t in (0.5, 1.0, 2.0, 4.0):
            profile = oracle.radial_heat_profile(q, t, 25)
            analytic = j_row(t, 8, params, 1e-14)
            rel = np.abs(profile[:9] - analytic) / analytic
            worst = max(worst, float(np.max(rel)))
    return CheckResult(4, "tree matrix oracle (radius 25)", worst <= 1e-6,
                       {"max_rel_error": _fmt(worst), "tolerance": 1e-6})


def check_theorem_scaling(_cfg=None, claimed_powers: dict | None = None) -> CheckResult:
    """Fitted exponents and scaled spreads of the four unrestricted sums.

    One exponent per sum, fitted over the whole (q, eps, t) grid; the
    spread of value * t^power is per series and must stay below 3.
    ``claimed_powers`` overrides the decay targets (negative control).
    """
    powers = dict(CLAIMED_POWERS)
    if claimed_powers:
        powers.update(claimed_powers)
    report = _sweep_cached((2, 3), T_GRID, EPS_GRID)
    details: dict = {}
    ok = True
    for kind in KINDS:
        s = report.summary[f"{kind}/none"]
        target = -powers[kind]
        exp_ok = abs(s["fitted_exponent"] - target) <= 0.1
        # spreads in the summary are taken against the canonical powers;
        # recompute against the requested target for the control path
        spread_ok = s["max_series_spread"] <= 3.0
        if claimed_powers and kind in claimed_powers:
            spread_ok = _respread(report, kind, powers[kind]) <= 3.0
        ok = ok and exp_ok and spread_ok
        details[f"{kind}_exponent"] = _fmt(s["fitted_exponent"])
        details[f"{kind}_spread"] = _fmt(s["max_series_spread"])
    details["exponent_window"] = 0.1
    return CheckResult(5, "large-time scaling", ok, details)


def _respread(report: sums.SweepReport, kind: str, power: float) -> float:
    worst = 1.0
    series: dict = {}
    for c in report.cells:
        if c.kind == kind and c.restriction == "none":
            series.setdefault((c.q, c.eps), []).append(c.value * c.t**power)
    for vals in series.values():
        worst = max(worst, max(vals) / min(vals))
    return worst


def check_horocycle(_cfg=None) -> CheckResult:
    report = _sweep_cached((2, 3), T_GRID, EPS_GRID)
    details: dict = {}
    ok = True
    for kind in KINDS:
        free = report.summary[f"{kind}/none"]["fitted_exponent"]
        restricted = report.summary[f"{kind}/horocycle"]["fitted_exponent"]
        gain = restricted - free
        ok = ok and abs(gain + 0.5) <= 0.1
        details[f"{kind}_gain"] = _fmt(gain)
    # the sup over offsets must be attained strictly inside the window
    inside = True
    params = TreeParams(2)
    for eps in EPS_GRID:
        for t in T_GRID:
            res = sums.scan(params, t, sums.ExpWeight(eps / math.sqrt(t)), 1e-10)
            for kind in KINDS:
                arg = int(np.argmax(res.offsets[kind])) - res.k_stop
                inside = inside and abs(arg) < res.k_stop
    ok = ok and inside
    details["sup_inside_window"] = inside
    return CheckResult(6, "horocycle restriction gain", ok, details)


def check_q_uniformity(_cfg=None) -> CheckResult:
    report = _sweep_cached((2, 3, 5, 7), T_GRID, EPS_GRID)
    details: dict = {}
    ok = True
    for kind in KINDS:
        for restriction in ("none", "horocycle"):
            spread = report.summary[f"{kind}/{restriction}"]["q_spread"]
            ok = ok and spread <= 4.0
            details[f"{kind}_{restriction}"] = _fmt(spread)
    return CheckResult(7, "constants uniform in q", ok, details)


def check_phi_inequalities(_cfg=None) -> CheckResult:
    xs = np.logspace(-4, 4, 400)
    log_gap = min(math.log(x) + 1.0 - math.log(2.0) - phi(x) for x in xs)
    # anchor the threshold point itself alongside the grid
    tail = [-x * phi(x) for x in xs if x >= 1.0] + [-phi(1.0)]
    c0 = min(tail)
    ok = log_gap >= 0.0 and c0 > 0.0
    return CheckResult(8, "decay profile inequalities", ok,
                       {"log_bound_margin": _fmt(log_gap), "C0_at_x0_1": _fmt(c0)})


def check_first_term_comparability(_cfg=None) -> CheckResult:
    lo, hi = math.inf, -math.inf
    for q in range(2, 8):
        params = TreeParams(q)
        for t in np.logspace(math.log10(0.5), 3.0, 13):
            jh = jhat_row(float(t), 60, params, 1e-13)
            hz = heat_z_row(float(t), 62)
            d = np.arange(61)
            first = (2.0 / t) * (d + 1.0) * hz[1:62]
            mask = first > 0
            ratios = jh[mask] / first[mask]
            lo = min(lo, float(np.min(ratios)))
            hi = max(hi, float(np.max(ratios)))
    ok = lo >= 1.0 - 1e-12 and hi <= 6.0
    return CheckResult(9, "series vs first term", ok,
                       {"ratio_min": _fmt(lo), "ratio_max": _fmt(hi), "window": "[1, 6]"})


def _random_nearby_pair(rng, q: int, depth: int = 16) -> tuple[Vertex, Vertex, int]:
    word = tuple(int(rng.integers(0, q)) for _ in range(depth))
    y = Vertex(0, word)
    up = int(rng.integers(0, 3))
    down = int(rng.integers(0 if up else 1, 4))
    zw = list(word[: depth - up]) if up else list(word)
    for i in range(down):
        if i == 0 and up:
            # first replacement digit must avoid re-merging with the dropped branch
            forbidden = word[depth - up]
            digit = int(rng.integers(0, q - 1))
            digit = digit + 1 if digit >= forbidden else digit
        else:
            digit = int(rng.integers(0, q))
        zw.append(digit)
    z = Vertex(0, tuple(zw))
    return y, z, distance(y, z)


def check_dyadic_blocks(_cfg=None) -> CheckResult:
    params = TreeParams(2)
    details: dict = {}
    ok = True
    for eps in EPS_GRID:
        vals = np.array([riesz.kn_weighted_sum(n, eps, params, 3e-5)
                         for n in range(13)])
        spread = float(vals.max() / vals.min())
        ok = ok and spread <= 3.0
        details[f"column_spread_eps{int(eps)}"] = _fmt(spread)
    grads = np.array([riesz.kn_grad_sum(n, 0.0, params, 3e-5) for n in range(13)])
    ns = np.arange(2, 13, dtype=float)
    slope = float(np.polyfit(ns * math.log(2.0), np.log(grads[2:]), 1)[0])
    ok = ok and -0.6 <= slope <= -0.4
    details["gradient_block_exponent"] = _fmt(slope)

    # the telescoped bound is attained with equality for distance-1 pairs,
    # so the ball-truncated sum is compared as stated and the omitted ball
    # mass is reported separately to quantify the truncation
    rng = np.random.default_rng(20250809)
    radius = 13
    checked = 0
    worst_margin = math.inf
    for n, count in ((0, 17), (1, 17), (2, 16)):
        tail = riesz.kn_column_tail(n, radius - 5, params, 1e-6)
        done = 0
        while done < count:
            y, z, dyz = _random_nearby_pair(rng, 2)
            if dyz == 0 or dyz > 5:
                continue
            lhs, bound = riesz.lipschitz_check(n, y, z, params, 1e-8, radius=radius)
            if not lhs <= bound + 1e-6:
                ok = False
            worst_margin = min(worst_margin, bound - lhs)
            done += 1
            checked += 1
        details[f"omitted_mass_n{n}"] = _fmt(2.0 * tail)
    details["lipschitz_pairs"] = checked
    details["lipschitz_min_margin"] = _fmt(worst_margin)
    return CheckResult(10, "dyadic kernel hypotheses", ok, details)


def check_spectrum(_cfg=None) -> CheckResult:
    ok = True
    details: dict = {}
    # full dense spectra where the ball is small enough, exact radial
    # extremes at the stated radius
    dense_plan = {2: 10, 3: 7}
    for q, radius in dense_plan.items():
        model = oracle.build_ball_model(TreeParams(q), radius)
        eigs = oracle.spectrum(model)
        in_range = eigs[0] >= -1e-9 and eigs[-1] <= 2.0 + 1e-9
        ok = ok and in_range
        details[f"dense_q{q}_r{radius}"] = f"[{_fmt(eigs[0])}, {_fmt(eigs[-1])}]"
    for q in (2, 3):
        lo, hi = oracle.flow_spectrum_bounds(q, 10)
        ok = ok and lo >= -1e-9 and hi <= 2.0 + 1e-9
        details[f"radial_q{q}_r10"] = f"[{_fmt(lo)}, {_fmt(hi)}]"
        b = TreeParams(q).b
        mins = [oracle.delta_min_eig(q, r) for r in (6, 8, 10, 12)]
        decreasing = all(a > bb for a, bb in zip(mins, mins[1:]))
        above = all(m > b for m in mins)
        closing = (mins[-2] - mins[-1]) < (mins[0] - mins[1])
        ok = ok and decreasing and above and closing
        details[f"delta_min_q{q}"] = [round(m, 8) for m in mins]
        details[f"b_q{q}"] = _fmt(b)
    return CheckResult(11, "spectra inside [0, 2], bottom toward b", ok, details)


def check_weak_type(_cfg=None) -> CheckResult:
    lambdas = [2.0**e for e in range(-10, 5)]
    details: dict = {}
    ok = True
    sups_by_q: dict[int, float] = {}
    for q in (2, 3):
        params = TreeParams(q)
        sups = [riesz.weak_type_probe(lambdas, r, params, 1e-9) for r in (15, 20, 25)]
        stability = max(sups) / min(sups)
        ok = ok and math.isfinite(max(sups)) and stability <= 2.0
        details[f"sup_q{q}"] = _fmt(max(sups))
        details[f"stability_q{q}"] = _fmt(stability)
        sups_by_q[q] = max(sups)
    details["q_ratio"] = _fmt(max(sups_by_q.values()) / min(sups_by_q.values()))
    ok = ok and details["q_ratio"] <= 4.0
    return CheckResult(12, "weak-type probe stable", ok, details)


def check_monte_carlo(_cfg=None, n_walks: int = 1_000_000, seed: int = 74) -> CheckResult:
    params = TreeParams(2)
    config = oracle.WalkConfig(q=2, t=4.0, n_walks=n_walks, seed=seed)
    result = oracle.mc_heat(config, oracle.WALK_TARGETS)
    worst = 0.0
    for tgt in oracle.WALK_TARGETS:
        est, err = result.estimate(tgt)
        exact = oracle.analytic_arrival_probability(tgt, 4.0, params)
        worst = max(worst, abs(est - exact) / err)
    drift = abs(result.mean_level_offset) / result.stderr_level_offset
    ok = worst <= 4.0 and drift <= 4.0
    return CheckResult(13, "Monte Carlo walk", ok,
                       {"max_sigma_deviation": _fmt(worst), "drift_sigma": _fmt(drift),
                        "walks": n_walks})


CHECKS = [
    check_stochasticity,
    check_z_oracle,
    check_recurrence,
    check_tree_oracle,
    check_theorem_scaling,
    check_horocycle,
    check_q_uniformity,
    check_phi_inequalities,
    check_first_term_comparability,
    check_dyadic_blocks,
    check_spectrum,
    check_weak_type,
    check_monte_carlo,
]


def run_checks(criteria: list[int] | None = None, **overrides) -> list[CheckResult]:
    """Run the selected criteria (all by default) and time each one."""
    results = []
    for cid, fn in enumerate(CHECKS, start=1):
        if criteria and cid not in criteria:
            continue
        start = time.monotonic()
        if fn is check_theorem_scaling and "claimed_powers" in overrides:
            res = fn(None, claimed_powers=overrides["claimed_powers"])
        elif fn is check_monte_carlo:
            res = fn(None, n_walks=overrides.get("n_walks", 1_000_000),
                     seed=overrides.get("seed", 74))
        else:
            res = fn(None)
        res.seconds = time.monotonic() - start
        results.append(res)
    return results
