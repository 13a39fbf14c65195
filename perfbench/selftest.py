"""Tests of the benchmark itself: the correctness gate and the tracer.

    python3 perfbench/selftest.py

Each gate gets a negative control (a perturbed output must count as a
failed operation); the tracer's self time is checked on a toy nested
call with a scripted clock, and the speed probe's scaling on a simulated
half-speed machine, for short calls and for one long native call.
"""

from __future__ import annotations

import math
import os
import sys
import time
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402
from flowtree import oracle, sums  # noqa: E402
from flowtree.tree import TreeParams  # noqa: E402
from tracer import Tracer  # noqa: E402


def failed(results):
    return [name for name, ok in results if not ok]


class ScriptedClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


class TracerTest(unittest.TestCase):
    def test_self_time_is_span_minus_children(self):
        tr = Tracer(clock=ScriptedClock([0.0, 1.0, 3.0, 4.0, 4.5, 5.0, 6.0, 10.0]))
        outer = tr.begin("outer")
        a = tr.begin("child")
        tr.end(a)
        b = tr.begin("child")
        g = tr.begin("grandchild")
        tr.end(g)
        tr.end(b)
        tr.end(outer)
        selfs = tr.self_times()
        # outer 0..10, children 1..3 and 4..6, grandchild 4.5..5
        self.assertEqual(selfs, [10.0 - 2.0 - 2.0, 2.0, 2.0 - 0.5, 0.5])
        self.assertEqual([s[3] for s in tr.spans], [-1, 0, 0, 2])

    def test_layer_metrics_from_spans(self):
        tr = Tracer(clock=ScriptedClock(float(i) for i in range(100)))
        blk = tr.begin("riesz.block")
        for key in ((1.0, 5), (1.0, 5), (2.0, 5)):
            s = tr.begin("sums.scan")
            z = tr.begin("zline.heat_z_row")
            tr.end(z, {"key": key})
            tr.end(s, {"k_stop": int(key[0]) * 10, "cert": 1e-12})
        tr.end(blk)
        tr.end(tr.begin("sums.scan"), {"k_stop": 7, "cert": 1e-11})
        m = tr.metrics()
        self.assertEqual(m["sums.scan.calls"], 4)
        self.assertEqual(m["riesz.block.scans_per_call"], 3.0)
        self.assertEqual(m["zline.heat_z_row.distinct_frac"], 2 / 3)
        self.assertEqual(m["sums.scan.k_stop_sum"], 47.0)
        self.assertEqual(m["sums.scan.k_stop_max"], 20.0)
        self.assertEqual(m["sums.scan.cert_max"], 1e-11)
        # block 0..13 and lone scan 14..15: top-level spans cover 14 s
        self.assertEqual(tr.top_span_s(), 14.0)
        self.assertEqual(m["oracle.mc_heat.calls"], 0)

    def test_install_wraps_every_binding(self):
        core = types.ModuleType("toypkg.core")
        exec("def leaf(x):\n    return x + 1\n", core.__dict__)
        user = types.ModuleType("toypkg.user")
        user.leaf = core.leaf  # a by-name import, as `from .core import leaf`
        exec("def outer(x):\n    return leaf(x) * 2\n", user.__dict__)
        pkg = types.ModuleType("toypkg")
        sys.modules.update({"toypkg": pkg, "toypkg.core": core, "toypkg.user": user})
        original = core.leaf
        try:
            tr = Tracer()
            tr.install(targets=(("core", "leaf", "core.leaf", None),
                                ("user", "outer", "user.outer", None)),
                       package="toypkg")
            self.assertEqual(user.outer(1), 4)
            self.assertEqual(core.leaf(0), 1)
            tr.uninstall()
            self.assertIs(user.leaf, original)
            self.assertIs(core.leaf, original)
            self.assertEqual(user.outer(1), 4)
        finally:
            for name in ("toypkg", "toypkg.core", "toypkg.user"):
                sys.modules.pop(name)
        names = [(s[0], s[3]) for s in tr.spans]
        self.assertEqual(names, [("user.outer", -1), ("core.leaf", 0), ("core.leaf", -1)])


class InputsTest(unittest.TestCase):
    def test_runner_lists_the_same_workloads(self):
        import run

        self.assertEqual(run.WORKLOADS, W.WORKLOADS)
        self.assertEqual(set(W.SPECS), set(W.WORKLOADS))

    def test_same_seed_same_inputs(self):
        for name, (make, _, _) in W.SPECS.items():
            self.assertEqual(repr(make(3)), repr(make(3)), name)
            self.assertNotEqual(repr(make(3)), repr(make(4)), name)

    def test_pointwise_t_mix_is_stratified(self):
        for seed in (1, 2):
            ts = [q.t for _, q in W.pointwise_inputs(seed)["queries"]]
            bands = np.floor((np.log2(ts) - W.POINT_LOG2_T[0])
                             / (W.POINT_LOG2_T[1] - W.POINT_LOG2_T[0]) * W.POINT_QUERIES)
            self.assertEqual(list(bands), list(range(W.POINT_QUERIES)))

    def test_lipschitz_pairs_have_planned_distances(self):
        from flowtree.tree import distance

        pairs = W.dyadic_inputs(5)["pairs"]
        dists = [distance(y, z) for _, y, z in pairs]
        planned = [d for ds in W.LIPSCHITZ_PLAN.values() for d in ds]
        self.assertEqual(dists, planned)


class GateTest(unittest.TestCase):
    """Each gate passes real outputs and fails a perturbed copy."""

    def test_sweep_mass_off_by_1e6_fails(self):
        inp = {"t_grid": [4.0**i for i in range(7)]}
        report = sums.sweep(list(W.SWEEP_Q), inp["t_grid"], list(W.SWEEP_EPS),
                            tol=W.SWEEP_TOL)
        self.assertEqual(failed(W.sweep_checks(inp, report)), [])
        cell = next(c for c in report.cells
                    if c.kind == "H" and c.restriction == "none" and c.eps == 0.0)
        cell.value += 1e-6
        self.assertEqual(len(failed(W.sweep_checks(inp, report))), 1)
        report.summary["gradX/none"]["fitted_exponent"] += 0.2
        self.assertIn("gradX exponent", failed(W.sweep_checks(inp, report)))

    def _dyadic_outputs(self, inp):
        ns = np.arange(13)
        return {"weighted": {0.0: [1.0] * 13, 1.0: [2.0] * 13},
                "grads": list(2.0 ** (-0.5 * ns)),
                "lipschitz": [(0.5, 1.0)] * len(inp["pairs"])}

    def test_dyadic_lhs_above_bound_fails(self):
        inp = W.dyadic_inputs(1)
        out = self._dyadic_outputs(inp)
        self.assertEqual(failed(W.dyadic_checks(inp, out)), [])
        out["lipschitz"][4] = (1.0 + 2e-6, 1.0)
        self.assertEqual(len(failed(W.dyadic_checks(inp, out))), 1)

    def test_dyadic_exponent_and_spread_fail(self):
        inp = W.dyadic_inputs(1)
        out = self._dyadic_outputs(inp)
        out["grads"] = list(2.0 ** (-0.3 * np.arange(13)))
        out["weighted"][1.0][0] = 7.0
        self.assertEqual(failed(W.dyadic_checks(inp, out)),
                         ["column spread eps=1", "gradient block exponent"])

    def test_pointwise_perturbed_value_fails(self):
        inp = W.pointwise_inputs(2)
        # values of order one, so a 1e-7 relative error exceeds the slack
        inp["queries"] = [(q, qu) for q, qu in inp["queries"]
                          if 0.5 < qu.t < 8.0 and qu.d <= 3 and qu.s >= 0][:6]
        self.assertGreaterEqual(len(inp["queries"]), 2)
        out = W.pointwise_body(inp)
        self.assertEqual(failed(W.pointwise_checks(inp, out)), [])
        bad = list(out)
        bad[0] = (bad[0][0] * (1.0 + 1e-7),) + bad[0][1:]
        bad[1] = bad[1][:4] + (math.nan,)
        names = failed(W.pointwise_checks(inp, bad))
        self.assertEqual(len(names), 2)
        self.assertTrue(names[0].startswith("kernel ") and names[1].startswith("riesz "))

    def test_oracle_gates_fail(self):
        class Walk:
            def __init__(self, shift):
                self.shift = shift

            def estimate(self, target):
                exact = oracle.analytic_arrival_probability(target, W.MC_T,
                                                            TreeParams(W.MC_Q))
                return exact + self.shift * 1e-3, 1e-3

        out = {"spectra": {(2, 3): np.array([0.1, 1.0, 1.9])}, "radial": {},
               "z": {}, "walk": Walk(3.9)}
        self.assertEqual(failed(W.oracles_checks({}, out)), [])
        out["spectra"][(2, 3)][-1] = 2.0 + 1e-6
        out["walk"] = Walk(4.1)
        self.assertEqual(len(failed(W.oracles_checks({}, out))), 1 + len(W.MC_TARGETS))


class SpeedProbeTest(unittest.TestCase):
    @staticmethod
    def short_calls():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            np.sort(np.random.default_rng(0).random(1000))

    @staticmethod
    def one_long_call():
        np.sort(np.random.default_rng(0).random(3_000_000))

    def test_short_and_long_calls(self):
        import speed

        saved = speed.probe
        try:
            for factor in (1.0, 2.0):  # the reference speed, then half of it
                speed.probe = lambda: factor * speed.REF_PROBE_S
                for work in (self.short_calls, self.one_long_call):
                    with speed.SpeedProbe(interval=0.01) as sp:
                        work()
                    self.assertEqual(sp.speed, 1.0 / factor)
                    # interpreter stretches are scaled, a long native call counts raw
                    self.assertAlmostEqual(
                        sp.scaled_s, (sp.raw_s - sp.native_s) / factor + sp.native_s, places=12)
                    self.assertAlmostEqual(sp.to_scaled([sp.stretches[-1][1]])[0], sp.scaled_s,
                                           places=12)
                    if work == self.short_calls:
                        self.assertGreater(len(sp.stretches), 10)
                        self.assertEqual(sp.native_s, 0.0)
                    else:  # the call held the alarm off for many intervals
                        self.assertGreater(sp.native_s, 0.0)
                    if factor == 1.0:  # at the reference speed both read raw seconds
                        self.assertAlmostEqual(sp.scaled_s, sp.raw_s, places=12)
        finally:
            speed.probe = saved

    def test_to_scaled_skips_probe_intervals(self):
        import speed

        sp = speed.SpeedProbe()
        sp.probes = [0.5 * speed.REF_PROBE_S] * 3  # a double-speed moment
        # interpreter stretches of 0.2 s, then one native stretch of 1 s
        sp.stretches = [(10.0, 10.2), (10.5, 10.7), (11.0, 12.0)]
        scaled = sp.to_scaled([9.0, 10.1, 10.3, 10.6, 10.9, 11.5, 13.0])
        self.assertEqual([round(x, 12) for x in scaled], [0.0, 0.2, 0.4, 0.6, 0.8, 1.3, 1.8])
        self.assertAlmostEqual(sp.scaled_s, 1.8, places=12)
        self.assertAlmostEqual(sp.native_s, 1.0, places=12)

    def test_retimed_spans(self):
        import speed

        sp = speed.SpeedProbe()
        sp.probes = [2.0 * speed.REF_PROBE_S] * 3  # a half-speed moment
        sp.stretches = [(0.0, 0.2), (0.5, 0.7)]
        tr = Tracer(clock=ScriptedClock([0.1, 0.15, 0.55, 0.65]))
        outer = tr.begin("outer")
        tr.end(tr.begin("child"), None)
        tr.end(outer)
        tr.retime(sp.to_scaled)
        # scaled: outer 0.05..0.175, child 0.075..0.125; the probe from
        # 0.2 to 0.5 counts nothing
        self.assertEqual([round(x, 12) for x in tr.self_times()], [0.075, 0.05])
        self.assertAlmostEqual(tr.top_span_s(), 0.125, places=12)


class BodyTest(unittest.TestCase):
    def test_exception_counts_as_failed_operation(self):
        import body

        def boom(inp):
            raise FloatingPointError("overflow")

        saved = W.SPECS["sweep"]
        W.SPECS["sweep"] = (saved[0], boom, saved[2])
        try:
            report = body.run("sweep", 1, None)
        finally:
            W.SPECS["sweep"] = saved
        self.assertEqual((report["attempted"], report["failed"]), (1, 1))
        self.assertIn("FloatingPointError", report["failures"][0])


if __name__ == "__main__":
    unittest.main()
