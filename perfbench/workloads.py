"""Seeded inputs, bodies and correctness gates of the four workloads.

Each workload is three functions:

* ``inputs(seed)`` builds the workload's inputs from the seed alone;
* ``body(inputs)`` makes the timed calls into ``flowtree`` and returns
  their raw outputs;
* ``checks(inputs, outputs)`` judges the outputs and returns one
  ``(name, ok)`` pair per operation attempted.

A check that raises or meets a non-finite value counts as failed, so
``failed / attempted`` is the workload's failed fraction. ``flowtree``
must be importable before this module is imported.
"""

from __future__ import annotations

import math

import numpy as np

from flowtree import heat, oracle, riesz, sums, zline
from flowtree.tree import Rel, TreeParams, Vertex, distance

WORKLOADS = ("sweep", "dyadic", "pointwise", "oracles")


def rng_for(workload: str, seed: int) -> np.random.Generator:
    """Independent stream per (workload, seed)."""
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _finite(*values) -> bool:
    return all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in values)


# ---------------------------------------------------------------------------
# sweep: the default `flowtree sums` grid out to t = 4^10
# ---------------------------------------------------------------------------

SWEEP_Q = (2, 3)
SWEEP_EPS = (0.0, 1.0)
SWEEP_TOL = 1e-10


def sweep_inputs(seed: int) -> dict:
    rng = rng_for("sweep", seed)
    jitter = 1.0 + 0.1 * rng.random(11)
    return {"t_grid": [float(4.0**i * j) for i, j in enumerate(jitter)]}


def sweep_body(inp: dict):
    return sums.sweep(list(SWEEP_Q), inp["t_grid"], list(SWEEP_EPS),
                      tol=SWEEP_TOL, restricted=True, jobs=1)


def sweep_checks(inp: dict, report) -> list[tuple[str, bool]]:
    out = []
    cells: dict[tuple, list] = {}
    for c in report.cells:
        cells.setdefault((c.q, c.eps, c.t), []).append(c)
    for (q, eps, t), group in sorted(cells.items()):
        ok = _finite([c.value for c in group], [c.tail_bound for c in group])
        if eps == 0.0:
            mass = next(c.value for c in group
                        if c.kind == "H" and c.restriction == "none")
            ok = ok and abs(mass - 1.0) <= 1e-8
        out.append((f"cell q={q} eps={eps:g} t={t:.6g}", ok))
    for kind, power in sums.CLAIMED_POWERS.items():
        free = report.summary[f"{kind}/none"]["fitted_exponent"]
        restricted = report.summary[f"{kind}/horocycle"]["fitted_exponent"]
        out.append((f"{kind} exponent", abs(free + power) <= 0.1))
        out.append((f"{kind} horocycle gain", abs(restricted - free + 0.5) <= 0.1))
    return out


# ---------------------------------------------------------------------------
# dyadic: block column sums (criterion 10) plus Lipschitz pairs
# ---------------------------------------------------------------------------

DYADIC_Q = 2
DYADIC_BLOCKS = range(13)
DYADIC_TOL = 3e-5
LIPSCHITZ_RADIUS = 13
LIPSCHITZ_TOL = 1e-8
#: distances d(y, z) tried for each block n; fixed so that every seed
#: builds the same set of block rows and only the pair geometry varies
LIPSCHITZ_PLAN = {0: (1, 3, 5), 1: (1, 3, 5), 2: (1, 3, 5)}
_WORD_DEPTH = 16


def nearby_pair(rng: np.random.Generator, q: int, dist: int) -> tuple[Vertex, Vertex]:
    """Random y at depth 16 and z at exactly ``dist`` from it."""
    word = tuple(int(d) for d in rng.integers(0, q, _WORD_DEPTH))
    up = int(rng.integers(0, dist + 1))
    down = dist - up
    zw = list(word[: _WORD_DEPTH - up])
    for i in range(down):
        digit = int(rng.integers(0, q))
        if i == 0 and up:
            # leave the branch y came from, or the geodesic would shorten
            digit = (word[_WORD_DEPTH - up] + 1 + int(rng.integers(0, q - 1))) % q
        zw.append(digit)
    y, z = Vertex(0, word), Vertex(0, tuple(zw))
    if distance(y, z) != dist:  # pragma: no cover - construction is exact
        raise AssertionError("pair generator missed its distance")
    return y, z


def dyadic_inputs(seed: int) -> dict:
    rng = rng_for("dyadic", seed)
    pairs = [(n, *nearby_pair(rng, DYADIC_Q, d))
             for n, dists in LIPSCHITZ_PLAN.items() for d in dists]
    return {"pairs": pairs}


def dyadic_body(inp: dict) -> dict:
    params = TreeParams(DYADIC_Q)
    weighted = {eps: [riesz.kn_weighted_sum(n, eps, params, DYADIC_TOL)
                      for n in DYADIC_BLOCKS] for eps in (0.0, 1.0)}
    grads = [riesz.kn_grad_sum(n, 0.0, params, DYADIC_TOL) for n in DYADIC_BLOCKS]
    lips = [riesz.lipschitz_check(n, y, z, params, LIPSCHITZ_TOL,
                                  radius=LIPSCHITZ_RADIUS)
            for n, y, z in inp["pairs"]]
    return {"weighted": weighted, "grads": grads, "lipschitz": lips}


def gradient_block_exponent(grads) -> float:
    ns = np.arange(2, len(grads), dtype=float)
    return float(np.polyfit(ns * math.log(2.0), np.log(grads[2:]), 1)[0])


def dyadic_checks(inp: dict, out: dict) -> list[tuple[str, bool]]:
    res = []
    for eps, vals in out["weighted"].items():
        vals = np.asarray(vals)
        res.append((f"weighted blocks eps={eps:g}", _finite(vals) and bool(np.all(vals > 0))))
        res.append((f"column spread eps={eps:g}", float(vals.max() / vals.min()) <= 3.0))
    grads = np.asarray(out["grads"])
    res.append(("gradient blocks", _finite(grads) and bool(np.all(grads > 0))))
    res.append(("gradient block exponent",
                -0.6 <= gradient_block_exponent(grads) <= -0.4))
    for (n, y, z), (lhs, bound) in zip(inp["pairs"], out["lipschitz"]):
        res.append((f"lipschitz n={n} {y} {z}",
                    _finite(lhs, bound) and lhs <= bound + 1e-6))
    return res


# ---------------------------------------------------------------------------
# pointwise: scalar kernel, gradient and Riesz queries
# ---------------------------------------------------------------------------

POINT_Q = (2, 3, 5)
POINT_QUERIES = 120
POINT_LOG2_T = (-3.0, 11.0)
POINT_DMAX = 16
POINT_TOL = heat.DEFAULT_TOL


def pointwise_inputs(seed: int) -> dict:
    """One query per equal log-width band of t, so every seed gets the
    same t mix; q is balanced over each run of three bands."""
    rng = rng_for("pointwise", seed)
    lo, hi = POINT_LOG2_T
    width = (hi - lo) / POINT_QUERIES
    qs = np.concatenate([rng.permutation(POINT_Q)
                         for _ in range(POINT_QUERIES // len(POINT_Q))])
    queries = []
    for i in range(POINT_QUERIES):
        t = 2.0 ** (lo + width * (i + rng.random()))
        d = int(rng.integers(0, POINT_DMAX + 1))
        if d == 0:
            rel = Rel.EQUAL
        elif d == 1:
            rel = (Rel.ANCESTOR, Rel.DESCENDANT)[int(rng.integers(0, 2))]
        else:
            rel = (Rel.ANCESTOR, Rel.DESCENDANT, Rel.INCOMPARABLE)[int(rng.integers(0, 3))]
        # level sum of the right parity inside [-16, 16]
        s = d + 2 * int(rng.integers(-((POINT_DMAX + d) // 2), (POINT_DMAX - d) // 2 + 1))
        queries.append((int(qs[i]), heat.KernelQuery(float(t), d, s, rel)))
    return {"queries": queries}


def pointwise_body(inp: dict) -> list[tuple]:
    out = []
    for q, query in inp["queries"]:
        params = TreeParams(q)
        rq = riesz.RieszQuery(query.d, query.s, query.rel)
        out.append((heat.kernel(query, params, POINT_TOL),
                    heat.grad_x(query, params, POINT_TOL),
                    heat.grad_y(query, params, POINT_TOL),
                    heat.grad_xy(query, params, POINT_TOL),
                    riesz.riesz_kernel(rq, params)))
    return out


def row_route(q: int, query: heat.KernelQuery) -> tuple[float, float, float, float]:
    """kernel, grad_x, grad_y, grad_xy from q^(-(s+d)/2) times the scaled
    stencils of one jhat row."""
    params = TreeParams(q)
    st = heat.scaled_stencils(heat.jhat_row(query.t, query.d + 2, params, POINT_TOL),
                              params)
    d, rel = query.d, query.rel
    pref = math.exp(-0.5 * (query.s + d) * params.log_q)
    rising_x = rel in (Rel.EQUAL, Rel.ANCESTOR)
    rising_y = rel in (Rel.EQUAL, Rel.DESCENDANT)
    gx = st["g_up"][d] if rising_x else st["g_side"][d]
    gy = st["g_up"][d] if rising_y else st["g_side"][d]
    if rel is Rel.EQUAL:
        gxy = st["xy_eq"][0]
    elif rel is Rel.INCOMPARABLE:
        gxy = st["xy_mid"][d]
    else:
        gxy = st["xy_ud"][d]
    return tuple(float(pref * v) for v in (st["h"][d], gx, gy, gxy))


def pointwise_checks(inp: dict, out: list[tuple]) -> list[tuple[str, bool]]:
    res = []
    names = ("kernel", "grad_x", "grad_y", "grad_xy")
    for (q, query), values in zip(inp["queries"], out):
        ref = row_route(q, query)
        # four J values at most enter a stencil, each within tol of the row
        slack = 8.0 * POINT_TOL * math.exp(-0.5 * query.s * math.log(q))
        label = f"q={q} t={query.t:.6g} d={query.d} s={query.s} {query.rel.value}"
        for name, v, r in zip(names, values, ref):
            res.append((f"{name} {label}",
                        _finite(v) and abs(v - r) <= 1e-9 * abs(r) + slack))
        res.append((f"riesz {label}", _finite(values[4])))
    return res


# ---------------------------------------------------------------------------
# oracles: dense spectra, matrix heat columns and the Monte Carlo walk
# ---------------------------------------------------------------------------

ORACLE_BALLS = ((2, 10), (3, 7))
RADIAL_CASES = tuple((q, t) for q in (2, 3) for t in (0.5, 1.0, 2.0, 4.0))
RADIAL_RADIUS = 25
Z_TIMES = (0.5, 1.0, 5.0, 20.0)
Z_HALF_WIDTH = 100
MC_Q, MC_T, MC_WALKS = 2, 4.0, 400_000
MC_TARGETS = ((0, ()), (1, ()), (0, (0,)), (0, (0, 1)), (1, (1,)))


def oracles_inputs(seed: int) -> dict:
    rng = rng_for("oracles", seed)
    return {"mc_seed": int(rng.integers(0, 2**31 - 1))}


def oracles_body(inp: dict) -> dict:
    spectra = {}
    for q, radius in ORACLE_BALLS:
        model = oracle.build_ball_model(TreeParams(q), radius)
        spectra[(q, radius)] = oracle.spectrum(model)
        del model
    radial = {(q, t): oracle.radial_heat_profile(q, t, RADIAL_RADIUS)
              for q, t in RADIAL_CASES}
    zcols = {t: oracle.z_heat_column(t, Z_HALF_WIDTH) for t in Z_TIMES}
    targets = [oracle.RelState(up, word) for up, word in MC_TARGETS]
    walk = oracle.mc_heat(oracle.WalkConfig(MC_Q, MC_T, MC_WALKS, inp["mc_seed"]),
                          targets)
    return {"spectra": spectra, "radial": radial, "z": zcols, "walk": walk}


def oracles_checks(inp: dict, out: dict) -> list[tuple[str, bool]]:
    res = []
    for (q, radius), eigs in out["spectra"].items():
        res.append((f"spectrum q={q} r={radius}",
                    _finite(eigs) and eigs[0] >= -1e-9 and eigs[-1] <= 2.0 + 1e-9))
    for (q, t), profile in out["radial"].items():
        params = TreeParams(q)
        analytic = heat.jhat_row(t, 8, params, 1e-14) \
            * np.exp(-0.5 * np.arange(9) * params.log_q)
        rel = np.abs(profile[:9] - analytic) / analytic
        res.append((f"radial q={q} t={t:g}", _finite(profile) and float(rel.max()) <= 1e-6))
    for t, col in out["z"].items():
        ref = zline.heat_z_row(t, 50)
        rel = np.abs(col[:51] - ref) / ref
        res.append((f"z column t={t:g}", _finite(col) and float(rel.max()) <= 1e-8))
    walk = out["walk"]
    params = TreeParams(MC_Q)
    for up, word in MC_TARGETS:
        target = oracle.RelState(up, word)
        est, err = walk.estimate(target)
        exact = oracle.analytic_arrival_probability(target, MC_T, params)
        res.append((f"walk up={up} word={word}",
                    _finite(est, err) and abs(est - exact) <= 4.0 * err))
    return res


SPECS = {
    "sweep": (sweep_inputs, sweep_body, sweep_checks),
    "dyadic": (dyadic_inputs, dyadic_body, dyadic_checks),
    "pointwise": (pointwise_inputs, pointwise_body, pointwise_checks),
    "oracles": (oracles_inputs, oracles_body, oracles_checks),
}
