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

Each subcommand handler takes the resolved map and the parsed arguments and
returns a `_Result`: its report pairs, its text lines, an optional CSV and
an optional verdict.  It writes nothing and computes no exit status.  A flag
absent from the command line is not passed to the library, so the library's
defaults apply.  `main` does the rest once: it resolves --map, appends
`status = PASS` or `status = FAIL` as the last pair when there is a verdict,
writes the output, and returns EXIT_VERIFY_FAILED exactly when the verdict
is false.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
import warnings
from collections.abc import Sequence
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import InvcurveError
from .graphtransform import (
    SolverConfig,
    _decades,
    invariance_residual,
    solve_manifold,
    tangency_fit,
)
from .mapdef import MapSpec, Point, canon, parse_map_spec, pert
from .normalform import normalize_map
from .parameterization import parameterize_manifold, repulsion_check
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


def _fmt(v) -> str:
    """A float of any width as binary64 with 17 significant digits; else str()."""
    return f"{float(v):.17g}" if isinstance(v, (float, np.floating)) else str(v)


_BUILTIN_RE = re.compile(r"^builtin:(\w+)\s*(?:\((.*)\))?$")

# builtin map -> (constructor, parameter -> keyword); an absent parameter
# keeps the constructor's default
_BUILTINS = {
    "CANON": (canon, {"lambda": "lam", "mu": "mu"}),
    "PERT": (pert, {"lambda": "lam", "mu": "mu", "c": "c"}),
}


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
        if name not in _BUILTINS:
            raise InvcurveError(f"unknown builtin map {name!r} (expected CANON or PERT)")
        build, keywords = _BUILTINS[name]
        unknown = sorted(set(params) - set(keywords))
        if unknown:
            raise InvcurveError(f"unknown parameter(s) {unknown} for {name}")
        return build(**{keywords[k]: v for k, v in params.items()})
    try:
        text = Path(source).read_text(encoding="utf-8")
    except OSError as exc:
        raise InvcurveError(f"cannot read map file {source!r}: {exc.strerror}") from exc
    return parse_map_spec(text)


def _given(args: argparse.Namespace, *flags: str, **renamed: str) -> dict:
    """Keyword arguments from the flags given on the command line: each of
    `flags` under its own name, each key of `renamed` under its value.  An
    absent flag is left out, so the library's default applies."""
    names = {**dict(zip(flags, flags)), **renamed}
    given = {kw: getattr(args, flag) for flag, kw in names.items()}
    return {kw: v for kw, v in given.items() if v is not None}


# command-line flag -> SolverConfig field
_SOLVER_FLAGS = {
    "order": "norm_order",
    "delta": "delta",
    "rho0": "rho0",
    "rho_factor": "rho_factor",
    "grid": "grid_size",
    "mmax": "m_max",
    "tol": "tol_converge",
}


def _solver_config(args: argparse.Namespace, *skip: str) -> SolverConfig:
    """The SolverConfig of the solver flags given, less the flags in `skip`."""
    flags = {flag: field for flag, field in _SOLVER_FLAGS.items() if flag not in skip}
    return SolverConfig(**_given(args, **flags))


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
    lines = [f"{key} = {_fmt(val)}" for key, val in pairs]
    if text_lines:
        lines.append("")
        lines.extend(text_lines)
    return "\n".join(lines) + "\n"


def _csv(header: str, *columns) -> str:
    """The header line, then one row per entry of the columns."""
    rows = [header]
    rows.extend(",".join(map(_fmt, row)) for row in zip(*columns))
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


class _Result(NamedTuple):
    pairs: list
    text: Sequence[str] = ()
    csv: str | None = None
    ok: bool | None = None  # the verdict of a verifying command


def _cmd_normalize(m: MapSpec, args) -> _Result:
    nf = normalize_map(m, **_given(args, "order"))
    pairs = [("order", nf.order), ("series_order", nf.normalized.order)]
    pairs.extend((f"gamma_{n}", g) for n, g in enumerate(nf.gammas, start=3))
    table = ["normalized coefficients (component exp_x exp_y value):"]
    for comp, terms in zip("XY", nf.normalized.sorted_terms()):
        table.extend(f"{comp} {i} {j} {_fmt(c)}" for (i, j), c in terms)
    return _Result(pairs, table)


def _cmd_manifold_gt(m: MapSpec, args) -> _Result:
    cfg = _solver_config(args)
    curve, cert, diag = solve_manifold(m, cfg)
    a3, _ = tangency_fit(curve)
    pairs = [
        ("delta", cfg.delta),
        ("norm_order", cfg.norm_order),
        ("grid_size", cfg.grid_size),
        ("levels", len(diag.levels)),
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
    return _Result(pairs, text, _csv("x,F", curve.xs, curve.fs))


def _cmd_manifold_param(m: MapSpec, args) -> _Result:
    conj = parameterize_manifold(m, **_given(args, "order"))
    order = conj.K1.order  # the order the conjugacy was solved through
    ks = range(order + 1)
    pairs = [("order", order), ("d", conj.d), ("residual_max", conj.residual_max)]
    pairs.extend((f"K1_{k}", conj.K1.coeff(k)) for k in ks)
    pairs.extend((f"K2_{k}", conj.K2.coeff(k)) for k in ks)
    text = ["conjugacy solve: phi CSV has columns k,phi_k (graph coefficients)."]
    return _Result(pairs, text, _csv("k,phi_k", ks, map(conj.phi.coeff, ks)))


def _cmd_verify_invariance(m: MapSpec, args) -> _Result:
    # --tol is the verification tolerance; the solver keeps its own tol_converge
    curve, _, _ = solve_manifold(m, _solver_config(args, "tol"))
    tol = args.tol if args.tol is not None else VERIFY_TOL
    max_res, rep = invariance_residual(m, curve, **_given(args, steps="samples"))
    pairs = [
        ("max_residual", max_res),
        ("tol", tol),
        ("samples", int(rep.xs.size)),
    ]
    return _Result(pairs, ok=max_res <= tol)


# the flags only the pair check (--x) or only the orbit trace reads
_PAIR_FLAGS = ("x", "y", "xhat", "yhat")
_ORBIT_FLAGS = ("x0", "offset", "steps")


def _cmd_verify_shadow(m: MapSpec, args) -> _Result:
    given = _given(args, "delta", order="n_power")
    pair_check = args.x is not None
    idle = _ORBIT_FLAGS if pair_check else _PAIR_FLAGS
    ignored = [f"--{flag}" for flag in idle if getattr(args, flag) is not None]
    if ignored:
        branch = "--x runs the pair check" if pair_check else "without --x runs the orbit trace"
        raise InvcurveError(f"verify-shadow {branch}, which ignores {', '.join(ignored)}")
    # both checks are about the map flattened to the hypothesis power N (--order)
    flat = normalize_map(m, **_given(args, "order")).normalized
    if pair_check:
        if args.xhat is None:
            raise InvcurveError("verify-shadow --x needs --xhat")
        # without --delta the gate 0 < x <= delta admits the queried point
        given.setdefault("delta", args.x)
        pair = ShadowPair(Point(args.x, args.y or 0.0), Point(args.xhat, args.yhat or 0.0))
        before, after, ok = shadow_step_check(flat, pair, **given)
        return _Result([("before", before), ("after", after)], ok=ok)
    if args.x0 is None:
        raise InvcurveError("verify-shadow needs either --x/--xhat or --x0/--offset")
    trace = orbit_shadow_experiment(flat, args.x0, args.offset or 0.0, args.steps or 50, **given)
    pairs = [
        ("steps", len(trace) - 1),
        ("truncated", trace.truncated),
        ("initial_metric", float(trace.metrics[0])),
        ("final_metric", float(trace.metrics[-1])),
    ]
    csv_text = _csv("step,x,xhat,metric", range(len(trace)), trace.xs, trace.xhats, trace.metrics)
    return _Result(pairs, csv=csv_text, ok=np.all(np.diff(trace.metrics) <= 0.0))


def _cmd_repulsion(m: MapSpec, args) -> _Result:
    if args.x0 is None or args.offset is None:
        raise InvcurveError("repulsion needs --x0 and --offset")
    conj = parameterize_manifold(m, **_given(args, "order"))
    trace = repulsion_check(
        m, conj.phi, args.x0, args.offset, args.steps or 20, **_given(args, "delta")
    )
    devs = np.abs(trace.deviations)
    ratio = float(devs[1] / devs[0]) if len(devs) > 1 and devs[0] != 0.0 else float("nan")
    monotone = bool(np.all(np.diff(devs) >= 0.0))
    pairs = [
        ("steps", len(trace.xs) - 1),
        ("truncated", trace.truncated),
        ("first_step_ratio", ratio),
        ("monotone_deviation", monotone),
        ("x_final", float(trace.xs[-1])),
    ]
    csv_text = _csv("step,x,deviation", range(len(trace.xs)), trace.xs, trace.deviations)
    return _Result(pairs, csv=csv_text, ok=monotone and not trace.truncated)


def _cmd_compare(m: MapSpec, args) -> _Result:
    # --order feeds the conjugacy side; the solver keeps its own default
    cfg = _solver_config(args, "order")
    curve, _, _ = solve_manifold(m, cfg)
    conj = parameterize_manifold(m, **_given(args, "order"))
    # the disagreement on [smallest decade, delta/2]; the solved curve reaches past delta
    mask = (curve.xs > 0.0) & (curve.xs <= cfg.delta / 2.0)
    xs = curve.xs[mask]
    diffs = np.abs(curve.fs[mask] - conj.phi.eval(xs))
    text = ["per-decade max disagreement (lo hi sup):"]
    text.extend(
        f"  {_fmt(lo)} {_fmt(hi)} {_fmt(diffs[sel].max())}" for lo, hi, sel in _decades(xs)
    )
    pairs = [
        ("sup_disagreement", float(diffs.max())),
        ("gt_a3", float(tangency_fit(curve)[0])),
        ("param_a3", conj.phi.coeff(3)),
        ("d", conj.d),
    ]
    ok = np.all(diffs <= np.maximum(COMPARE_CUBIC * xs**3, COMPARE_FLOOR))
    return _Result(pairs, text, ok=ok)


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
            result = args.func(resolve_map(args.map), args)
        pairs = list(result.pairs)
        if result.ok is not None:
            pairs.append(("status", "PASS" if result.ok else "FAIL"))
        _emit(result.csv, _report(pairs, result.text), args.out)
    except InvcurveError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0 if result.ok is None or result.ok else EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
