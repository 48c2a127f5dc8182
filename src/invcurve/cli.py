"""Command-line front end.

Subcommands cover the whole pipeline: flatten a map, run either solver,
verify invariance or the separation metric, run the repulsion experiment,
and compare the two solvers.  Maps come from a spec file or from the builtin
syntax `builtin:NAME(key=val,...)` with NAME one of CANON, PERT.

Output is deterministic: data as CSV with 17 significant digits, reports as
`key = value` lines followed by free text.  When --out is given the CSV goes
to that file and the report to stdout; otherwise the CSV itself is stdout
and the report moves to stderr.  A library warning goes to stderr as one
`warning: <message>` line.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import InvcurveError
from .graphtransform import (
    Curve,
    SolverConfig,
    _decades,
    invariance_residual,
    solve_manifold,
    tangency_fit,
)
from .mapdef import MapSpec, Point, canon, parse_map_spec, pert
from .normalform import normalize_map
from .parameterization import (
    DEFAULT_CONJUGACY_ORDER,
    ConjugacyResult,
    parameterize_manifold,
    repulsion_check,
)
from .shadowing import ShadowPair, orbit_shadow_experiment, shadow_step_check


# exit status of a verification that ran and found its property violated
EXIT_VERIFY_FAILED = 3

# `compare` passes when the solvers disagree by at most
# max(COMPARE_CUBIC * x^3, COMPARE_FLOOR) at every compared node (the
# method-agreement bound of the acceptance criteria); it does not follow --tol
COMPARE_CUBIC = 1e-6
COMPARE_FLOOR = 1e-9

# `verify-invariance` passes when the invariance defect is at most --tol, or this
VERIFY_TOL = 1e-8


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


_BUILTIN_RE = re.compile(r"^builtin:(\w+)\s*(?:\((.*)\))?$")


def resolve_map(source: str) -> MapSpec:
    """Load a map from `builtin:NAME(...)` syntax or from a spec file."""
    match = _BUILTIN_RE.match(source.strip())
    if match:
        name, arg_str = match.group(1).upper(), match.group(2)
        params: dict[str, float] = {}
        if arg_str and arg_str.strip():
            for item in arg_str.split(","):
                key, _, val = item.partition("=")
                if not _:
                    raise InvcurveError(f"bad builtin parameter {item!r}")
                key = key.strip()
                if key in params:
                    raise InvcurveError(f"{name} parameter {key!r} is given twice")
                try:
                    params[key] = float(val)
                except ValueError as exc:
                    raise InvcurveError(f"{name} parameter {item.strip()!r} is not a number") from exc
        if name == "CANON":
            result = canon(lam=params.pop("lambda", 1.0), mu=params.pop("mu", 0.0))
        elif name == "PERT":
            result = pert(
                lam=params.pop("lambda", 1.0),
                mu=params.pop("mu", 0.0),
                c=params.pop("c", 0.1),
            )
        else:
            raise InvcurveError(f"unknown builtin map {name!r} (expected CANON or PERT)")
        if params:
            raise InvcurveError(f"unknown parameter(s) {sorted(params)} for {name}")
        return result
    try:
        text = Path(source).read_text(encoding="utf-8")
    except OSError as exc:
        raise InvcurveError(f"cannot read map file {source!r}: {exc.strerror}") from exc
    return parse_map_spec(text)


# command-line flag -> SolverConfig field; an absent flag keeps the field's default
_SOLVER_FLAGS = {
    "order": "norm_order",
    "delta": "delta",
    "rho0": "rho0",
    "rho_factor": "rho_factor",
    "grid": "grid_size",
    "mmax": "m_max",
    "tol": "tol_converge",
}


def _solver_config(args: argparse.Namespace) -> SolverConfig:
    given = {field: getattr(args, flag) for flag, field in _SOLVER_FLAGS.items()}
    return SolverConfig(**{k: v for k, v in given.items() if v is not None})


def _emit(csv_text: str | None, report_text: str, out: str | None) -> None:
    # the CSV, or the report when there is none, goes to --out or stdout; a
    # report beside a CSV goes to stdout or stderr respectively
    data, note = (report_text, "") if csv_text is None else (csv_text, report_text)
    if out:
        try:
            Path(out).write_text(data, encoding="utf-8")
        except OSError as exc:
            raise InvcurveError(f"cannot write output file {out!r}: {exc.strerror}") from exc
        sys.stdout.write(note)
    else:
        sys.stdout.write(data)
        sys.stderr.write(note)


def _report(pairs, text_lines=()) -> str:
    lines = []
    for key, val in pairs:
        if isinstance(val, float):
            lines.append(f"{key} = {_fmt(val)}")
        else:
            lines.append(f"{key} = {val}")
    if text_lines:
        lines.append("")
        lines.extend(text_lines)
    return "\n".join(lines) + "\n"


def _curve_csv(curve: Curve) -> str:
    rows = ["x,F"]
    rows.extend(f"{_fmt(x)},{_fmt(f)}" for x, f in zip(curve.xs, curve.fs))
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# method comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MethodComparison:
    xs: np.ndarray
    diffs: np.ndarray
    sup_disagreement: float
    decade_rows: tuple[tuple[float, float, float], ...]
    gt_a3: float
    param_a3: float
    curve: Curve
    conjugacy: ConjugacyResult


def compare_methods(
    m: MapSpec, cfg: SolverConfig, order: int = DEFAULT_CONJUGACY_ORDER
) -> MethodComparison:
    """Run both solvers and measure their disagreement on [smallest decade, delta/2]."""
    curve, _, _ = solve_manifold(m, cfg)
    conj = parameterize_manifold(m, order)
    half = cfg.delta / 2.0
    if half > curve.x_max:
        warnings.warn("comparison window clipped to the curve domain", stacklevel=2)
        half = curve.x_max
    mask = (curve.xs > 0.0) & (curve.xs <= half)
    xs = curve.xs[mask]
    diffs = np.abs(curve.fs[mask] - conj.phi.eval(xs))
    rows = [(lo, hi, float(diffs[sel].max())) for lo, hi, sel in _decades(xs)]
    a3_gt, _ = tangency_fit(curve)
    return MethodComparison(
        xs=xs,
        diffs=diffs,
        sup_disagreement=float(diffs.max()),
        decade_rows=tuple(rows),
        gt_a3=float(a3_gt),
        param_a3=conj.phi.coeff(3),
        curve=curve,
        conjugacy=conj,
    )


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_normalize(args) -> int:
    m = resolve_map(args.map)
    order = args.order if args.order is not None else 8
    nf = normalize_map(m, order)
    pairs = [("order", order), ("series_order", nf.normalized.order)]
    pairs.extend((f"gamma_{n}", g) for n, g in zip(range(3, order + 1), nf.gammas))
    table = ["normalized coefficients (component exp_x exp_y value):"]
    for comp, terms in zip("XY", nf.normalized.sorted_terms()):
        table.extend(f"{comp} {i} {j} {_fmt(c)}" for (i, j), c in terms)
    _emit(None, _report(pairs, table), args.out)
    return 0


def _cmd_manifold_gt(args) -> int:
    m = resolve_map(args.map)
    cfg = _solver_config(args)
    curve, cert, diag = solve_manifold(m, cfg)
    a3, _ = tangency_fit(curve)
    pairs = [
        ("delta", cfg.delta),
        ("norm_order", cfg.norm_order),
        ("grid_size", cfg.grid_size),
        ("levels", len(diag.levels)),
        ("converged", diag.converged),
        ("x_max", curve.x_max),
        ("tangency_a3", a3),
        ("min_dxdx", cert.min_dxdx),
        ("xmax_drift_c", cert.xmax_drift_c),
    ]
    for i, lv in enumerate(diag.levels):
        pairs.append((f"rho_{i}", lv.rho))
        pairs.append((f"nu_bar_{i}", lv.nu_bar))
        pairs.append((f"regraphs_{i}", lv.regraphs))
        pairs.append((f"x_max_final_{i}", float(lv.x_max_trace[-1])))
        pairs.append((f"growth_margin_min_{i}", lv.growth_margin_min))
        trace = ",".join(_fmt(v) for v in lv.x_max_trace)
        pairs.append((f"x_max_trace_{i}", trace))
    for i, gap in enumerate(diag.gaps):
        pairs.append((f"gap_{i}", gap))
    pairs.append(("seed_error_est", diag.seed_error_est))
    for mm, k in enumerate(cert.ks):
        pairs.append((f"K_{mm}", k))
    text = [
        "graph-transform solve: curve CSV has columns x,F on the graded grid.",
        "K_m are measured suprema of x^(m-N) |F^(m)| on the final flattened curve.",
        "seed_error_est models the returned level's seed error from the last gap; not a bound.",
    ]
    _emit(_curve_csv(curve), _report(pairs, text), args.out)
    return 0


def _cmd_manifold_param(args) -> int:
    m = resolve_map(args.map)
    order = args.order if args.order is not None else DEFAULT_CONJUGACY_ORDER
    conj = parameterize_manifold(m, order)
    rows = ["k,phi_k"]
    rows.extend(f"{k},{_fmt(conj.phi.coeff(k))}" for k in range(order + 1))
    csv_text = "\n".join(rows) + "\n"
    pairs = [
        ("order", order),
        ("d", conj.d),
        ("residual_order", conj.residual_order),
        ("residual_max", conj.residual_max),
    ]
    pairs.extend((f"K1_{k}", conj.K1.coeff(k)) for k in range(order + 1))
    pairs.extend((f"K2_{k}", conj.K2.coeff(k)) for k in range(order + 1))
    text = ["conjugacy solve: phi CSV has columns k,phi_k (graph coefficients)."]
    _emit(csv_text, _report(pairs, text), args.out)
    return 0


def _cmd_verify_invariance(args) -> int:
    m = resolve_map(args.map)
    # --tol is the verification tolerance; the solver keeps its own tol_converge
    cfg = replace(_solver_config(args), tol_converge=SolverConfig().tol_converge)
    curve, _, _ = solve_manifold(m, cfg)
    tol = args.tol if args.tol is not None else VERIFY_TOL
    max_res, rep = invariance_residual(m, curve, samples=args.steps or 200)
    ok = max_res <= tol
    pairs = [
        ("max_residual", max_res),
        ("tol", tol),
        ("samples", int(rep.xs.size)),
        ("failures", len(rep.failures)),
        ("status", "PASS" if ok else "FAIL"),
    ]
    _emit(None, _report(pairs), args.out)
    return 0 if ok else EXIT_VERIFY_FAILED


def _cmd_verify_shadow(args) -> int:
    m = resolve_map(args.map)
    n_power = args.order if args.order is not None else 8
    delta = args.delta if args.delta is not None else 0.05
    if args.x is not None:
        if args.delta is None:
            delta = max(delta, args.x)  # widen the gate to the queried point
        pair = ShadowPair(Point(args.x, args.y or 0.0), Point(args.xhat, args.yhat or 0.0))
        before, after, ok = shadow_step_check(m, pair, n_power, delta)
        pairs = [
            ("before", before),
            ("after", after),
            ("status", "PASS" if ok else "FAIL"),
        ]
        _emit(None, _report(pairs), args.out)
        return 0 if ok else EXIT_VERIFY_FAILED
    if args.x0 is None:
        raise InvcurveError("verify-shadow needs either --x/--xhat or --x0/--offset")
    trace = orbit_shadow_experiment(
        m, args.x0, args.offset or 0.0, args.steps or 50, n_power, delta
    )
    rows = ["step,x,xhat,metric"]
    rows.extend(
        f"{k},{_fmt(x)},{_fmt(xh)},{_fmt(mt)}"
        for k, (x, xh, mt) in enumerate(zip(trace.xs, trace.xhats, trace.metrics))
    )
    csv_text = "\n".join(rows) + "\n"
    nonexpanding = bool(np.all(np.diff(trace.metrics) <= 0.0))
    pairs = [
        ("steps", len(trace) - 1),
        ("truncated", trace.truncated),
        ("initial_metric", float(trace.metrics[0])),
        ("final_metric", float(trace.metrics[-1])),
        ("status", "PASS" if nonexpanding else "FAIL"),
    ]
    _emit(csv_text, _report(pairs), args.out)
    return 0 if nonexpanding else EXIT_VERIFY_FAILED


def _cmd_repulsion(args) -> int:
    m = resolve_map(args.map)
    order = args.order if args.order is not None else DEFAULT_CONJUGACY_ORDER
    delta = args.delta if args.delta is not None else 0.05
    if args.x0 is None or args.offset is None:
        raise InvcurveError("repulsion needs --x0 and --offset")
    conj = parameterize_manifold(m, order)
    trace = repulsion_check(m, conj.phi, args.x0, args.offset, args.steps or 20, delta)
    rows = ["step,x,deviation"]
    rows.extend(
        f"{k},{_fmt(x)},{_fmt(dv)}"
        for k, (x, dv) in enumerate(zip(trace.xs, trace.deviations))
    )
    csv_text = "\n".join(rows) + "\n"
    devs = np.abs(trace.deviations)
    ratio = float(devs[1] / devs[0]) if len(devs) > 1 and devs[0] != 0.0 else float("nan")
    monotone = bool(np.all(np.diff(devs) >= 0.0))
    ok = monotone and not trace.truncated
    pairs = [
        ("steps", len(trace.xs) - 1),
        ("truncated", trace.truncated),
        ("first_step_ratio", ratio),
        ("monotone_deviation", monotone),
        ("x_final", float(trace.xs[-1])),
        ("status", "PASS" if ok else "FAIL"),
    ]
    _emit(csv_text, _report(pairs), args.out)
    return 0 if ok else EXIT_VERIFY_FAILED


def _cmd_compare(args) -> int:
    m = resolve_map(args.map)
    order = args.order if args.order is not None else DEFAULT_CONJUGACY_ORDER
    # --order feeds the conjugacy side; the solver keeps its own default
    cfg = replace(_solver_config(args), norm_order=8)
    cmp_res = compare_methods(m, cfg, order)
    allowed = np.maximum(COMPARE_CUBIC * cmp_res.xs**3, COMPARE_FLOOR)
    ok = bool(np.all(cmp_res.diffs <= allowed))
    pairs = [
        ("sup_disagreement", cmp_res.sup_disagreement),
        ("gt_a3", cmp_res.gt_a3),
        ("param_a3", cmp_res.param_a3),
        ("d", cmp_res.conjugacy.d),
        ("status", "PASS" if ok else "FAIL"),
    ]
    text = ["per-decade max disagreement (lo hi sup):"]
    text.extend(
        f"  {_fmt(lo)} {_fmt(hi)} {_fmt(sup)}" for lo, hi, sup in cmp_res.decade_rows
    )
    _emit(None, _report(pairs, text), args.out)
    return 0 if ok else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _step_count(text: str) -> int:
    if not (text.isdigit() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"must be a whole number of at least 1, got {text!r}")
    return int(text)


# every optional flag but these reads a float; an absent flag reads as None
_FLAG_TYPES = {"--order": int, "--grid": int, "--mmax": int, "--steps": _step_count}
_SOLVER = ("--delta", "--rho0", "--rho-factor", "--grid", "--mmax", "--tol")
_SHADOW = ("--delta", "--x", "--y", "--xhat", "--yhat", "--x0", "--offset", "--steps")

# subcommand -> (handler, the flags besides --map, --order and --out that the
# handler reads, help); any other flag is a usage error
_COMMANDS = {
    "normalize": (_cmd_normalize, (), "flatten the Y component and print the shift"),
    "manifold-gt": (_cmd_manifold_gt, _SOLVER, "graph-transform solve; curve CSV"),
    "manifold-param": (_cmd_manifold_param, (), "conjugacy solve; phi CSV"),
    "verify-invariance": (
        _cmd_verify_invariance, (*_SOLVER, "--steps"), "measure the invariance defect"
    ),
    "verify-shadow": (_cmd_verify_shadow, _SHADOW, "separation metric: pair check or orbit trace"),
    "repulsion": (
        _cmd_repulsion, ("--delta", "--x0", "--offset", "--steps"), "backward-iteration repulsion"
    ),
    "compare": (_cmd_compare, _SOLVER, "run both solvers and report their disagreement"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invcurve",
        description="Invariant curves of degenerate planar maps: solve, verify, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, flags, help_) in _COMMANDS.items():
        # no prefix matching: `repulsion --x` must not be read as --x0
        p = sub.add_parser(name, help=help_, allow_abbrev=False)
        p.add_argument("--map", required=True, help="map spec file or builtin:NAME(...)")
        for flag in ("--order", *flags):
            p.add_argument(flag, type=_FLAG_TYPES.get(flag, float), default=None)
        p.add_argument("--out", default=None)
        p.set_defaults(func=func)
    return parser


# parsing leaves the parser unchanged, so one per process serves every call
_parser = functools.cache(build_parser)


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Print a library warning as one `warning: <message>` line on stderr."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.func(args)
    except InvcurveError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
