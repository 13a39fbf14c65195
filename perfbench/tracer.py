"""Span tracer that wraps flowtree's public functions from outside.

``flowtree`` modules import one another's functions by name (``heat``,
``sums`` and ``riesz`` each hold their own binding of ``heat_z_row``), so
wrapping a function where it is defined would miss most calls. The tracer
therefore replaces every binding of the original function object in
every loaded ``flowtree`` module. Functions reached through a module
attribute at call time (``sums.scan`` from ``riesz``, ``enumerate_ball``
imported inside ``lipschitz_check``) see the wrapper as well.

Spans (name, start, end, parent) and per-call attributes stay in memory;
:meth:`Tracer.dump` writes them out once the traced work is done. Hot
helpers such as ``tree.common_prefix_len`` are deliberately not wrapped.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


def _scan_attrs(args, kwargs, res):
    return {"k_stop": res.k_stop, "cert": res.tail + res.row_slack}


def _zrow_key(args, kwargs, res):
    return {"key": (float(args[0]), int(args[1]))}


def _jrow_key(args, kwargs, res):
    tol = args[3] if len(args) > 3 else kwargs.get("tol")
    return {"key": (float(args[0]), int(args[1]), args[2].q, tol)}


def _lipschitz_attrs(args, kwargs, res):
    lhs, bound = res
    return {"margin": bound - lhs}


def _ball_attrs(args, kwargs, res):
    return {"vertices": len(res)}


def _kernel_rows_attrs(args, kwargs, res):
    return {"quad_error": res.quad_error}


def _spectrum_attrs(args, kwargs, res):
    return {"n": len(res)}


def _walk_attrs(args, kwargs, res):
    return {"walks": res.config.n_walks}


#: (module, function, span name, attribute hook) for every traced function
TARGETS = (
    ("zline", "heat_z", "zline.heat_z", None),
    ("zline", "heat_z_row", "zline.heat_z_row", _zrow_key),
    ("heat", "j_value", "heat.j_value", None),
    ("heat", "jhat_row", "heat.jhat_row", _jrow_key),
    ("heat", "kernel", "heat.point", None),
    ("heat", "grad_x", "heat.point", None),
    ("heat", "grad_y", "heat.point", None),
    ("heat", "grad_xy", "heat.point", None),
    ("tree", "enumerate_ball", "tree.enumerate_ball", _ball_attrs),
    ("sums", "scan", "sums.scan", _scan_attrs),
    ("sums", "sweep", "sums.sweep", None),
    ("riesz", "kn_weighted_sum", "riesz.block", None),
    ("riesz", "kn_grad_sum", "riesz.block", None),
    ("riesz", "lipschitz_check", "riesz.lipschitz", _lipschitz_attrs),
    ("riesz", "kernel_rows", "riesz.kernel_rows", _kernel_rows_attrs),
    ("riesz", "riesz_kernel", "riesz.point", None),
    ("oracle", "build_ball_model", "oracle.build_ball_model", None),
    ("oracle", "spectrum", "oracle.spectrum", _spectrum_attrs),
    ("oracle", "mc_heat", "oracle.mc_heat", _walk_attrs),
    ("oracle", "radial_heat_profile", "oracle.columns", None),
    ("oracle", "z_heat_column", "oracle.columns", None),
)

SPAN_NAMES = tuple(dict.fromkeys(span for _, _, span, _ in TARGETS))

#: dense n x n float64 arrays that ``oracle.assemble_operators`` holds at
#: once (adjacency, predecessor, delta, flow, grad, grad_star, identity)
DENSE_ARRAYS = 7


class Tracer:
    """Records nested spans; single-threaded, like the workloads it traces."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent, attrs]
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int, attrs: dict | None = None) -> None:
        self.spans[idx][2] = self.clock()
        self.spans[idx][4] = attrs
        self._stack.pop()

    def wrap(self, fn, name: str, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            res = None
            try:
                res = fn(*args, **kwargs)
                return res
            finally:
                self.end(idx, hook(args, kwargs, res) if hook and res is not None else None)
        return traced

    def install(self, targets=TARGETS, package: str = "flowtree") -> None:
        """Replace every binding of each target in the loaded package."""
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == package or n.startswith(package + "."))]
        for mod_name, fn_name, span, hook in targets:
            original = getattr(sys.modules[f"{package}.{mod_name}"], fn_name)
            wrapper = self.wrap(original, span, hook)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def retime(self, to_scaled) -> None:
        """Re-express every span's start and end through ``to_scaled``, a map
        from clock readings to scaled seconds (``SpeedProbe.to_scaled``)."""
        flat = to_scaled([t for s in self.spans for t in s[1:3]])
        for i, s in enumerate(self.spans):
            s[1], s[2] = flat[2 * i], flat[2 * i + 1]

    def top_span_s(self) -> float:
        """Summed duration of the spans that have no parent."""
        return sum(s[2] - s[1] for s in self.spans if s[3] < 0)

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its direct children.

        Children of one span never overlap (one thread), so their summed
        durations are the part of the parent's interval they cover.
        """
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def dump(self, path: str) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": [[s[0], s[1] - t0, s[2] - t0, s[3]] for s in self.spans]},
                      fh, separators=(",", ":"))

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics named ``<span>.<quantity>``; absent work reads 0."""
        selfs = self.self_times()
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        keys: dict[str, set] = defaultdict(set)
        attrs: dict[str, list] = defaultdict(list)
        under_block = [False] * len(self.spans)
        scans_under_block = 0
        for i, (name, _, _, parent, at) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += selfs[i]
            under_block[i] = name == "riesz.block" or (parent >= 0 and under_block[parent])
            if name == "sums.scan" and under_block[i]:
                scans_under_block += 1
            if at:
                if "key" in at:
                    keys[name].add(at["key"])
                attrs[name].append(at)

        def pick(name, field, agg):
            vals = [a[field] for a in attrs[name]]
            return float(agg(vals)) if vals else 0.0

        m: dict[str, float] = {}
        for name in SPAN_NAMES:
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.self_s"] = self_s[name]
        m["sums.scan.k_stop_sum"] = pick("sums.scan", "k_stop", sum)
        m["sums.scan.k_stop_max"] = pick("sums.scan", "k_stop", max)
        m["sums.scan.cert_max"] = pick("sums.scan", "cert", max)
        for name in ("zline.heat_z_row", "heat.jhat_row"):
            m[f"{name}.distinct_frac"] = len(keys[name]) / calls[name] if calls[name] else 0.0
        blocks = calls["riesz.block"]
        m["riesz.block.scans_per_call"] = scans_under_block / blocks if blocks else 0.0
        m["riesz.lipschitz.min_margin"] = pick("riesz.lipschitz", "margin", min)
        m["tree.enumerate_ball.vertices"] = pick("tree.enumerate_ball", "vertices", sum)
        m["riesz.kernel_rows.quad_error_max"] = pick("riesz.kernel_rows", "quad_error", max)
        n_max = pick("oracle.spectrum", "n", max)
        m["oracle.spectrum.dense_mb"] = DENSE_ARRAYS * 8.0 * n_max**2 / 2**20
        walks = pick("oracle.mc_heat", "walks", sum)
        m["oracle.mc_heat.walks_per_s"] = walks / self_s["oracle.mc_heat"] if walks else 0.0
        return m
