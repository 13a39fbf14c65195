"""Command-line front end: kernel tables, sweeps, verification, oracles.

Subcommands
-----------
kernel    table of kernel and gradient values over a (q, t, d) grid
sums      weighted-sum sweep with fitted exponents and constants
verify    the acceptance suite, one pass/fail line per criterion
spectrum  ball spectra and radial bounds from the matrix oracle
walk      Monte Carlo walk against the analytic kernel

All commands write CSV (default) or JSON with the full configuration in a
header block; identical configurations produce byte-identical output.
Exit status: 0 on success, 1 if a verification check fails, 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__, acceptance, oracle, riesz, sums
from .heat import KernelQuery, grad_x, grad_xy, grad_y, kernel
from .report import Report
from .riesz import RieszQuery
from .tree import Rel, TreeParams, ball_size


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x]


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


_REL = {"equal": Rel.EQUAL, "ancestor": Rel.ANCESTOR,
        "descendant": Rel.DESCENDANT, "incomparable": Rel.INCOMPARABLE}


def _emit(report: Report, args) -> None:
    text = report.render(args.format)
    if args.output:
        with open(args.output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _apply_config_file(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Override options from a key=value file; each value is parsed by the
    ``type=`` function of its option in the subcommand's parser."""
    options = {a.dest: a for a in parser._actions}
    with open(args.config) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = (part.strip() for part in line.partition("="))
            key = key.replace("-", "_")
            if key not in options:
                raise SystemExit(f"unknown config key {key!r}")
            action = options[key]
            if isinstance(action.const, bool):  # store_true flags
                value = value.lower() in ("1", "true", "yes")
            elif action.type is not None:
                value = action.type(value)
            setattr(args, key, value)


def cmd_kernel(args) -> int:
    rel = _REL[args.rel]
    rows = []
    for q in args.q:
        params = TreeParams(q)
        for t in args.t:
            for d in args.d:
                r = Rel.EQUAL if d == 0 else rel
                if r is Rel.INCOMPARABLE and d < 2:
                    r = Rel.ANCESTOR
                s = args.level_sum if args.level_sum is not None else d
                if (s - d) % 2 != 0:
                    s = d
                query = KernelQuery(t, d, s, r)
                row = [q, t, d, s, r.value,
                       kernel(query, params, args.tol),
                       grad_x(query, params, args.tol),
                       grad_y(query, params, args.tol),
                       grad_xy(query, params, args.tol)]
                if args.with_riesz:
                    rq = RieszQuery(d, s, r)
                    value, err = riesz.riesz_kernel_with_error(rq, params, args.tol)
                    row.extend([value, err])
                rows.append(tuple(row))
    columns = ["q", "t", "d", "level_sum", "rel", "H", "gradX", "gradY", "gradXY"]
    if args.with_riesz:
        columns += ["riesz", "riesz_error_bound"]
    report = Report(
        config={"command": "kernel", "q": args.q, "t": args.t, "d": args.d,
                "rel": args.rel, "level_sum": args.level_sum,
                "with_riesz": args.with_riesz, "tol": args.tol},
        columns=tuple(columns), rows=rows)
    _emit(report, args)
    return 0


def cmd_sums(args) -> int:
    report_data = sums.sweep(args.q, args.t, args.eps, tol=args.tol,
                             restricted=not args.no_restricted, jobs=args.jobs)
    report = Report(
        config={"command": "sums", "q": args.q, "t": args.t, "eps": args.eps,
                "tol": args.tol, "restricted": not args.no_restricted,
                "jobs": args.jobs},
        columns=sums.SweepReport.COLUMNS,
        rows=report_data.rows(),
        summary=report_data.summary)
    _emit(report, args)
    return 0


def cmd_verify(args) -> int:
    overrides = {}
    if args.claimed_power_h is not None:
        overrides["claimed_powers"] = {"H": args.claimed_power_h}
    overrides["n_walks"] = args.walks
    overrides["seed"] = args.seed
    results = acceptance.run_checks(args.criteria or None, **overrides)
    rows = []
    all_ok = True
    for res in results:
        print(res.line())
        all_ok = all_ok and res.passed
        rows.append((res.cid, res.name, "pass" if res.passed else "fail",
                     repr(res.details)))
    report = Report(
        config={"command": "verify", "criteria": args.criteria or "all",
                "walks": args.walks, "seed": args.seed,
                "claimed_power_h": args.claimed_power_h},
        columns=("criterion", "name", "status", "details"),
        rows=rows,
        summary={"passed": all_ok})
    if args.output:
        _emit(report, args)
    return 0 if all_ok else 1


def cmd_spectrum(args) -> int:
    rows = []
    for q in args.q:
        lo, hi = oracle.flow_spectrum_bounds(q, args.radius)
        rows.append((q, args.radius, "radial_flow_bounds", lo, hi))
        mins = [oracle.delta_min_eig(q, r) for r in (6, 8, args.radius)]
        rows.append((q, args.radius, "delta_min_trend", mins[0], mins[-1]))
        if ball_size(args.radius, TreeParams(q)) <= args.dense_max:
            model = oracle.build_ball_model(TreeParams(q), args.radius)
            eigs = oracle.spectrum(model)
            rows.append((q, args.radius, "dense_flow_extremes",
                         float(eigs[0]), float(eigs[-1])))
    report = Report(
        config={"command": "spectrum", "q": args.q, "radius": args.radius,
                "dense_max": args.dense_max},
        columns=("q", "radius", "quantity", "low", "high"),
        rows=rows)
    _emit(report, args)
    return 0


def cmd_walk(args) -> int:
    params = TreeParams(args.q[0])
    config = oracle.WalkConfig(q=args.q[0], t=args.t[0], n_walks=args.walks,
                               seed=args.seed)
    targets = [oracle.RelState(0, ()), oracle.RelState(1, ()),
               oracle.RelState(0, (0,)), oracle.RelState(0, (0, 1)),
               oracle.RelState(1, (1,))]
    result = oracle.mc_heat(config, targets)
    rows = []
    for tgt in targets:
        est, err = result.estimate(tgt)
        exact = oracle.analytic_arrival_probability(tgt, config.t, params)
        rows.append((f"up{tgt.up}+{''.join(map(str, tgt.word))}",
                     est, err, exact, abs(est - exact) / err if err else 0.0))
    report = Report(
        config={"command": "walk", "q": config.q, "t": config.t,
                "walks": config.n_walks, "seed": config.seed},
        columns=("target", "estimate", "stderr", "analytic", "sigma_deviation"),
        rows=rows,
        summary={"mean_level_offset": result.mean_level_offset,
                 "stderr_level_offset": result.stderr_level_offset})
    _emit(report, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowtree",
        description="heat kernel and Riesz transform estimates on homogeneous trees")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", default=None, help="write report to this path")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--tol", type=float, default=1e-10)
        p.add_argument("--config", default=None,
                       help="key=value file overriding defaults")
        p.set_defaults(parser=p)

    p = sub.add_parser("kernel", help="kernel/gradient value table")
    common(p)
    p.add_argument("--q", type=_ints, default=[2])
    p.add_argument("--t", type=_floats, default=[1.0])
    p.add_argument("--d", type=_ints, default=list(range(9)))
    p.add_argument("--rel", choices=sorted(_REL), default="ancestor")
    p.add_argument("--level-sum", type=int, default=None)
    p.add_argument("--with-riesz", action="store_true")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("sums", help="weighted-sum sweep report")
    common(p)
    p.add_argument("--q", type=_ints, default=[2, 3])
    p.add_argument("--t", type=_floats,
                   default=[1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0])
    p.add_argument("--eps", type=_floats, default=[0.0, 1.0])
    p.add_argument("--no-restricted", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_sums)

    p = sub.add_parser("verify", help="run the acceptance suite")
    common(p)
    p.add_argument("--criteria", type=_ints, default=[],
                   help="subset of criteria to run, e.g. 1,5,8")
    p.add_argument("--walks", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=74)
    p.add_argument("--claimed-power-h", type=float, default=None,
                   help="override the mass-sum decay power (negative control)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("spectrum", help="ball spectra from the matrix oracle")
    common(p)
    p.add_argument("--q", type=_ints, default=[2])
    p.add_argument("--radius", type=int, default=10)
    p.add_argument("--dense-max", type=int, default=5000)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("walk", help="Monte Carlo walk vs analytic kernel")
    common(p)
    p.add_argument("--q", type=_ints, default=[2])
    p.add_argument("--t", type=_floats, default=[4.0])
    p.add_argument("--walks", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=74)
    p.set_defaults(func=cmd_walk)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        _apply_config_file(args, args.parser)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
