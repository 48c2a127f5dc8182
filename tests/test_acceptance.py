"""Acceptance gate: one test per criterion, each printing a pass line.

Solver runs are cached per map so the twelve-map battery (canonical,
perturbed, ten randomized admissible maps) is computed once and reused by
the criteria that share it.
"""

import functools

import numpy as np
import pytest

from invcurve import (
    SolverConfig,
    Series2,
    PlanarSeriesMap,
    build_psi,
    canon,
    compose_maps,
    invariance_residual,
    normalize_to_order,
    orbit_shadow_experiment,
    parameterize_manifold,
    pert,
    repulsion_check,
    rho_refinement,
    shadow_step_check,
    solve_conjugacy,
    solve_manifold,
    tangency_fit,
    to_planar_series,
)
from oracles import acceptance_battery, flatten_map, pert_jet_closed_form, sample_shadow_pair

DELTA = 0.05
RANDOM_SEED = 1729
# norm_order 12, delta 0.05, derived rho0 0.9 delta, rho_factor 1/2 (the
# returned level runs at rho = 0.0225), grid 512
BASE_CFG = SolverConfig()

BATTERY = acceptance_battery(RANDOM_SEED)


@functools.lru_cache(maxsize=None)
def _gt_solution(idx: int):
    return solve_manifold(BATTERY[idx], BASE_CFG)


@functools.lru_cache(maxsize=None)
def _param_solution(idx: int):
    return parameterize_manifold(BATTERY[idx], 10)


def _passed(n: int, text: str) -> None:
    print(f"criterion {n:2d}: PASS  ({text})")


def test_criterion_01_trivial_manifold_exactness():
    cfg = SolverConfig(rho0=DELTA / 8.0, grid_size=256)
    for lam in (0.5, 1.0, 2.0):
        for mu in (-1.0, 0.0, 1.0):
            m = canon(lam, mu)
            curve, _, _ = solve_manifold(m, cfg)
            on_domain = curve.xs <= DELTA
            assert np.max(np.abs(curve.fs[on_domain])) <= 1e-12
            conj = parameterize_manifold(m, 10)
            xs = curve.xs[on_domain & (curve.xs > 0)]
            assert np.max(np.abs(conj.phi.eval(xs))) <= 1e-12
    _passed(1, "sup|F| <= 1e-12 for both solvers over 9 canonical maps")


def test_criterion_02_leading_coefficient_oracle():
    for c in (0.02, 0.1, 0.4):
        expected = pert_jet_closed_form(1.0, c)[0]
        m = pert(1.0, 0.0, c)
        curve, _, _ = solve_manifold(m, BASE_CFG)
        a3, _ = tangency_fit(curve)
        assert a3 == pytest.approx(expected, rel=0.01)
        conj = parameterize_manifold(m, 10)
        assert conj.phi.coeff(3) == pytest.approx(expected, rel=0.01)
    _passed(2, "a3 = c/2 within 1% for both solvers, c in {0.02, 0.1, 0.4}")


def test_criterion_03_method_agreement():
    lo, hi = DELTA * 1e-3, DELTA / 2.0
    for idx in range(len(BATTERY)):
        curve, _, _ = _gt_solution(idx)
        conj = _param_solution(idx)
        mask = (curve.xs >= lo) & (curve.xs <= hi)
        xs = curve.xs[mask]
        diff = np.abs(curve.fs[mask] - conj.phi.eval(xs))
        allowed = np.maximum(1e-6 * xs**3, BASE_CFG.tol_converge)
        assert np.all(diff <= allowed), f"map {idx}: worst {np.max(diff / allowed)}"
    _passed(3, "solver disagreement within max(1e-6 x^3, tol) on 12 maps")


def test_criterion_04_invariance_residual():
    # the original map takes each of 150 samples (x, F(x)), x in (0, delta/2],
    # to (X, Y); the solved curve must pass through the image: |F(X) - Y|
    for idx in range(len(BATTERY)):
        curve, _, _ = _gt_solution(idx)
        max_res, rep = invariance_residual(BATTERY[idx], curve, samples=150)
        assert not rep.failures
        assert max_res <= 1e-8, f"map {idx}: residual {max_res}"
    _passed(4, "invariance residual |F(X) - Y| <= 1e-8 at the images of 150 samples "
               "in (0, delta/2], 12 maps")


def test_criterion_05_normal_form():
    for idx, m in enumerate(BATTERY):
        order = max(10, m.degree, 12)
        sm = to_planar_series(m, order)
        nf = normalize_to_order(sm, 8)
        for k in range(3, 9):
            assert abs(nf.normalized.fy.coeff(k, 0)) <= 1e-12
        shear = PlanarSeriesMap(
            Series2.x(order),
            Series2.from_terms(
                {(0, 1): 1.0, **{(n, 0): g for n, g in zip(range(3, 9), nf.gammas)}},
                order,
            ),
            order,
        )
        lhs = compose_maps(shear, sm)
        rhs = compose_maps(nf.normalized, shear)
        worst = 0.0
        for a, b in ((lhs.fx, rhs.fx), (lhs.fy, rhs.fy)):
            for key in set(a.coeffs) | set(b.coeffs):
                worst = max(worst, abs(a.coeff(*key) - b.coeff(*key)))
        assert worst <= 1e-10, f"map {idx}: conjugacy identity off by {worst}"
    _passed(5, "pure-x Y terms vanish through order 8; shear conjugacy <= 1e-10")


def test_criterion_06_shadowing():
    rng = np.random.default_rng(RANDOM_SEED + 1)
    for raw in (canon(1.0, 0.0), pert(1.0, 0.0, 0.1)):
        fm = flatten_map(raw, 8)
        for _ in range(5000):
            pair = sample_shadow_pair(rng, DELTA, 8)
            before, after, ok = shadow_step_check(fm, pair, 8, DELTA)
            assert ok, f"metric expanded {before} -> {after}"
        trace = orbit_shadow_experiment(fm, 0.01, 1e-30, 50, 8, DELTA)
        assert len(trace) == 51 and not trace.truncated
        assert np.all(np.diff(trace.metrics) <= 0.0)
    _passed(6, "10,000 pairs non-expanding; 50-step orbit traces non-increasing")


def test_criterion_07_appendix_structure():
    for idx, m in enumerate(BATTERY):
        sq = compose_maps(to_planar_series(m, 10), to_planar_series(m, 10))
        assert abs(sq.fy.coeff(3, 0)) <= 1e-12
        psi = build_psi(m, 10)
        assert abs(psi.fx.coeff(2, 0) + 2.0) <= 1e-12
        assert abs(psi.fy.coeff(1, 1) - 2.0 * m.lam) <= 1e-12
        conj = solve_conjugacy(psi, 10)
        assert conj.residual_max <= 1e-10, f"map {idx}: residual {conj.residual_max}"
        assert conj.model.coeff(2) == -2.0
    _passed(7, "squared-map / inverted-square structure and residual <= 1e-10")


def test_criterion_08_growth_law():
    for idx in range(len(BATTERY)):
        _, _, diag = _gt_solution(idx)
        for lv in diag.levels:
            trace = lv.x_max_trace
            prev, nxt = trace[:-1], trace[1:]
            active = prev <= DELTA
            assert np.all(nxt[active] >= prev[active] + 0.5 * prev[active] ** 2)
    _passed(8, "x_max growth law at every accepted step of every level")


def test_criterion_09_repulsion():
    m = pert(1.0, 0.0, 0.1)
    conj = _param_solution(1)
    trace = repulsion_check(m, conj.phi, 0.02, 1e-9, 20, DELTA)
    assert not trace.truncated and len(trace.xs) == 21
    devs = np.abs(trace.deviations)
    assert np.all(np.diff(devs) >= 0.0)
    assert devs[1] / devs[0] == pytest.approx(1.0 + 2.0 * 0.02, rel=0.05)
    assert np.all(trace.xs[1:] < trace.xs[:-1] - 0.5 * trace.xs[:-1] ** 2 + 1e-12)
    _passed(9, "deviation non-decreasing; first ratio within 5% of 1 + 2 lam x0")


def test_criterion_10_rho_refinement():
    cfg = SolverConfig(
        norm_order=3, delta=DELTA, rho0=DELTA / 4.0, rho_factor=0.5, grid_size=512
    )
    _, gaps = rho_refinement(pert(0.5, 0.0, 0.4), cfg, 6)
    assert len(gaps) == 5
    assert all(gaps[i] > gaps[i + 1] for i in range(len(gaps) - 1)), gaps
    _passed(10, "successive-curve gaps strictly decrease over rho0 * 2^-k, k = 0..5")
