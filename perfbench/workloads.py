"""The three benchmark workloads: set-up, one operation, and its correctness gate.

Every operation is closed-loop (one caller; the next operation starts when
the previous one returns) and is checked against the acceptance bounds.  An
operation that raises, exits non-zero or breaks a bound counts as failed.

The operations call the package through module attributes at call time
(`ic.solve_manifold`, `cli.main`), never through names bound at import, so
that the tracer's rebinding sees every call.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import invcurve as ic
import invcurve.cli as cli
from battery import DELTA, N_POWER, battery, shadow_pairs

TOL_CONVERGE = 1e-9  # criterion 03 disagreement bound (the default tol_converge)
TOL_INVARIANCE = 1e-8  # criterion 04 and the graph-invariance bound
CONJ_ORDERS = (10, 12)
CERTIFY_SAMPLES = 150
CERTIFY_PAIRS = 200
ORBIT_STEPS = 50
REPULSION_STEPS = 20
# Battery indices in the order operations visit them.  The cheap named maps
# (CANON = 0, PERT = 1) sit apart among the random ones, so a run that ends
# part-way through a pass holds about the same mix as a whole pass.
OP_ORDER = [2, 3, 4, 5, 6, 0, 7, 8, 9, 10, 11, 1]

# Accuracy figures: (unit, the bound each one is gated by or None if only
# reported).  "abs" is an absolute difference of curve ordinates or series
# coefficients.
ACCURACY = {
    "acc.disagreement_max": ("abs", TOL_CONVERGE),
    "acc.refinement_gap_max": ("abs", TOL_CONVERGE),
    "acc.invariance_residual_max": ("abs", TOL_INVARIANCE),
    "acc.conj_residual_max": ("abs", None),
    "acc.graph_invariance_max": ("abs", TOL_INVARIANCE),
    "acc.shadow_expansions": ("count", 0),
}


@dataclass
class Check:
    """Outcome of one operation's gate: accuracy figures and the first breach."""

    acc: dict[str, float] = field(default_factory=dict)
    failure: str | None = None

    def bound(self, name: str, value: float) -> None:
        self.acc[name] = max(self.acc.get(name, value), value)
        limit = ACCURACY[name][1]
        if limit is not None and not value <= limit:
            self.fail(f"{name} = {value:.3e} above its bound {limit:.0e}")

    def fail(self, reason: str) -> None:
        if self.failure is None:
            self.failure = reason


def _report_value(report: str, key: str) -> float:
    for line in report.splitlines():
        name, sep, val = line.partition(" = ")
        if sep and name == key:
            return float(val)
    raise KeyError(key)


class CompareBattery:
    name = "compare-battery"
    why = "the CLI compare users run, both solvers per map; graph-transform push loop dominates"
    # about 570,000 page faults per operation; its CPU time follows the
    # memory reference and not the interpreter one on a busy host
    reference = "memory"

    def setup(self, seed: int, workdir: Path) -> dict:
        maps = battery(seed)
        specs = []
        for i, m in enumerate(maps):
            path = workdir / f"map-{i:02d}.spec"
            path.write_text(ic.format_map_spec(m), encoding="utf-8")
            specs.append(path)
        return {"maps": maps, "specs": specs, "out": workdir / "compare.out", "reports": {}}

    def op(self, state: dict, i: int):
        out = state["out"]
        out.unlink(missing_ok=True)
        argv = ["compare", "--map", str(state["specs"][i]), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        return rc, out.read_bytes() if rc == 0 else b""

    def check(self, state: dict, i: int, raw) -> Check:
        rc, report = raw
        chk = Check()
        if rc != 0:
            chk.fail(f"compare exited with status {rc}")
            return chk
        try:
            chk.bound("acc.disagreement_max", _report_value(report.decode(), "sup_disagreement"))
        except (KeyError, ValueError) as exc:
            chk.fail(f"compare report unreadable: {exc!r}")
        seen = state["reports"].setdefault(i, report)
        if seen != report:
            chk.fail(f"compare report for map {i} is not byte-identical to its earlier run")
        return chk


class ConjOrders:
    name = "conj-orders"
    why = "conjugacy at orders 10 and 12 plus the graph-invariance check; series products dominate"
    reference = "interpreter"

    def setup(self, seed: int, workdir: Path) -> dict:
        return {"maps": battery(seed), "order_s": {n: [] for n in CONJ_ORDERS}}

    def op(self, state: dict, i: int):
        m = state["maps"][i]
        out = []
        for n in CONJ_ORDERS:
            t0 = time.process_time()
            conj = ic.parameterize_manifold(m, n)
            gic = ic.graph_invariance_check(m, conj.phi, n - 4)
            out.append((n, conj, gic, time.process_time() - t0))
        return out

    def check(self, state: dict, i: int, raw) -> Check:
        chk = Check()
        for n, conj, gic, secs in raw:
            state["order_s"][n].append(secs)  # every copy, traced ones included
            chk.bound("acc.conj_residual_max", conj.residual_max)
            chk.bound("acc.graph_invariance_max", gic.max_coeff_diff)
        return chk


class Certify:
    name = "certify"
    why = "pointwise checks of a solved curve: scalar map evaluation, root finds, Newton inversion"
    reference = "interpreter"

    def setup(self, seed: int, workdir: Path) -> dict:
        maps = battery(seed)
        cfg = ic.SolverConfig(rho0=DELTA / 4.0)
        rng = np.random.default_rng(seed + 1)
        curves, flat, pairs, gaps = [], [], [], []
        for m in maps:
            curve, _, diag = ic.solve_manifold(m, cfg)
            curves.append(curve)
            flat.append(diag.normal_form.normalized)
            gaps.extend(diag.gaps)
            pairs.append(shadow_pairs(rng, CERTIFY_PAIRS))
        return {
            "maps": maps,
            "curves": curves,
            "flat": flat,
            "pairs": pairs,
            "setup_acc": {"acc.refinement_gap_max": max(gaps)},
        }

    def op(self, state: dict, i: int):
        m, curve, fm = state["maps"][i], state["curves"][i], state["flat"][i]
        res = ic.invariance_residual(m, curve, samples=CERTIFY_SAMPLES)
        steps = [ic.shadow_step_check(fm, p, N_POWER, DELTA) for p in state["pairs"][i]]
        orbit = ic.orbit_shadow_experiment(fm, 0.01, 1e-30, ORBIT_STEPS, N_POWER, DELTA)
        rep = ic.repulsion_check(m, curve, 0.02, 1e-9, REPULSION_STEPS, DELTA)
        return res, steps, orbit, rep

    def check(self, state: dict, i: int, raw) -> Check:
        (max_res, inv), steps, orbit, rep = raw
        chk = Check()
        if inv.failures:
            chk.fail(f"{len(inv.failures)} invariance samples skipped")
        chk.bound("acc.invariance_residual_max", max_res)
        chk.bound("acc.shadow_expansions", sum(1 for _, _, ok in steps if not ok))
        if orbit.truncated or len(orbit) != ORBIT_STEPS + 1:
            chk.fail("orbit trace truncated")
        elif not np.all(np.diff(orbit.metrics) <= 0.0):
            chk.fail("orbit separation metric increased")
        devs = np.abs(rep.deviations)
        if rep.truncated or devs.size != REPULSION_STEPS + 1:
            chk.fail("repulsion trace truncated")
        elif not np.all(np.diff(devs) >= 0.0):
            chk.fail("repulsion deviation decreased")
        return chk


WORKLOADS = {w.name: w for w in (CompareBattery(), ConjOrders(), Certify())}


# ---------------------------------------------------------------------------
# trace hooks and per-layer metrics
# ---------------------------------------------------------------------------


def _on_solve(records, args, kwargs, result):
    _, _, diag = result
    pushes = [lv.nu_bar for lv in diag.levels]
    records["solve"].append((len(pushes), sum(pushes), pushes[-1], max(diag.gaps)))


def _on_conjugacy(records, args, kwargs, result):
    order = kwargs["order"] if "order" in kwargs else args[1]
    records["conjugacy"].append((order - 2, result.residual_max))


TRACE_HOOKS = {
    "graphtransform.solve_manifold": _on_solve,
    "parameterization.solve_conjugacy": _on_conjugacy,
}

# (name, unit): every per-layer metric the traced run reports.
#   NAME.s / NAME.us   mean inclusive time per call
#   NAME.calls         calls per operation
#   NAME.self_s        self time per operation
PER_LAYER = [
    ("graphtransform.solve_manifold.s", "s"),
    ("graphtransform.levels", "count"),
    ("graphtransform.pushes", "count"),
    ("graphtransform.push_us", "us"),
    ("graphtransform.regraph_us", "us"),
    ("graphtransform.final_level_push_share", "ratio"),
    ("graphtransform.invariance_residual.s", "s"),
    ("graphtransform.brentq.calls", "count"),
    ("graphtransform.curve_eval.calls", "count"),
    ("series.compose_maps.calls", "count"),
    ("series.compose_maps.self_s", "s"),
    ("series.invert_map_series.calls", "count"),
    ("series.invert_map_series.self_s", "s"),
    ("series.reverse_series.self_s", "s"),
    ("series.Series2.mul.calls", "count"),
    ("series.Series1.mul.calls", "count"),
    ("series.eval_terms.calls", "count"),
    ("series.eval_terms.self_s", "s"),
    ("parameterization.build_psi.s", "s"),
    ("parameterization.solve_conjugacy.s", "s"),
    ("parameterization.stage_ms", "ms"),
    ("parameterization.graph_invariance_check.s", "s"),
    ("parameterization.repulsion_check.s", "s"),
    ("normalform.normalize_to_order.s", "s"),
    ("mapdef.invert_point.calls", "count"),
    ("mapdef.invert_point.s", "s"),
    ("mapdef.invert_point.evals_per_call", "count"),
    ("mapdef.eval_map.calls", "count"),
    ("shadowing.shadow_step_check.us", "us"),
    ("shadowing.orbit_shadow_experiment.s", "s"),
    ("cli.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
]


def layer_metrics(summary, records, ops: int, overhead_frac: float) -> dict[str, float]:
    """Per-layer figures from the spans of `ops` traced operations."""
    out: dict[str, float] = {}
    per_op = 1.0 / ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    solves = records.get("solve", [])
    pushes = sum(s[1] for s in solves)
    solve = "graphtransform.solve_manifold"
    pchip = summary.mask("graphtransform.pchip.build") | summary.mask("graphtransform.pchip.eval")
    regraph_s = float(summary.dur[pchip & summary.under(solve)].sum())
    out["graphtransform.solve_manifold.s"] = summary.mean_s(solve)
    out["graphtransform.levels"] = ratio(sum(s[0] for s in solves), len(solves))
    out["graphtransform.pushes"] = ratio(pushes, len(solves))
    out["graphtransform.push_us"] = 1e6 * ratio(summary.self_s(solve), pushes)
    out["graphtransform.regraph_us"] = 1e6 * ratio(regraph_s, pushes)
    out["graphtransform.final_level_push_share"] = ratio(sum(s[2] for s in solves), pushes)
    out["graphtransform.invariance_residual.s"] = summary.mean_s("graphtransform.invariance_residual")
    for name in ("graphtransform.brentq", "graphtransform.curve_eval", "series.compose_maps",
                 "series.invert_map_series", "series.Series2.mul", "series.Series1.mul",
                 "series.eval_terms", "mapdef.invert_point", "mapdef.eval_map"):
        out[f"{name}.calls"] = summary.count(name) * per_op
    for name in ("series.compose_maps", "series.invert_map_series", "series.reverse_series",
                 "series.eval_terms"):
        out[f"{name}.self_s"] = summary.self_s(name) * per_op
    for name in ("parameterization.build_psi", "parameterization.solve_conjugacy",
                 "parameterization.graph_invariance_check", "parameterization.repulsion_check",
                 "normalform.normalize_to_order", "mapdef.invert_point",
                 "shadowing.orbit_shadow_experiment"):
        out[f"{name}.s"] = summary.mean_s(name)
    stages = sum(c[0] for c in records.get("conjugacy", []))
    out["parameterization.stage_ms"] = 1e3 * ratio(
        summary.self_s("parameterization.solve_conjugacy"), stages
    )
    evals_in_inversion = summary.mask("mapdef.eval_map") & summary.under("mapdef.invert_point")
    out["mapdef.invert_point.evals_per_call"] = ratio(
        int(evals_in_inversion.sum()), summary.count("mapdef.invert_point")
    )
    out["shadowing.shadow_step_check.us"] = 1e6 * summary.mean_s("shadowing.shadow_step_check")
    cli_names = [n for n in summary.names if n.startswith("cli.")]
    if cli_names:
        glue = summary.self_s("op") + sum(summary.self_s(n) for n in cli_names)
        out["cli.overhead_s"] = glue * per_op
    else:
        out["cli.overhead_s"] = 0.0
    out["trace.overhead_frac"] = overhead_frac
    return {name: out[name] for name, _ in PER_LAYER}


def check_traced(chk: Check, records, marks: dict[str, int]) -> None:
    """Gate the figures a traced operation exposes only through its hooks.

    `marks` holds the record counts from before the operation, so only its
    own solves are checked.
    """
    for _, _, _, gap in records.get("solve", [])[marks.get("solve", 0):]:
        chk.bound("acc.refinement_gap_max", gap)
    for _, residual in records.get("conjugacy", [])[marks.get("conjugacy", 0):]:
        chk.bound("acc.conj_residual_max", residual)
