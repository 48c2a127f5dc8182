"""The graph-transform push kernel against its references.

The kernel evaluates the map with the map's dense-matrix evaluator and
re-graphs with the package's one PCHIP, which `Curve.eval` reads too; these
tests hold the evaluator to the exactly summed terms, its cuts of the
y-power rows, on arrays and at a point, to the sums over every row, and the
PCHIP, in the re-graph and in `Curve.eval`, to SciPy's bit for bit, check
that every push path gives the same curves, and hold the level loop, which
carries pushed points forward, to the loop that re-graphs after every push.
SciPy is the test-only oracle here; the package imports no part of SciPy.
"""

import contextlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator as ScipyPchip

import invcurve
from invcurve import (
    GuardError,
    MapSpec,
    PlanarSeriesMap,
    Series2,
    SolverConfig,
    format_map_spec,
    graded_grid,
    graphtransform,
    pert,
    push_curve,
    rho_refinement,
    seed_curve,
    solve_manifold,
    to_planar_series,
)
from invcurve.graphtransform import (
    PchipInterpolator,
    _comparison_grid,
    _end_slope,
    _prepare,
    _PushKernel,
    _run_level,
)
from invcurve.series import CUT_WEIGHT, ROW_CUT, MapEvaluator, _cut, _cut_table, compose_maps
from oracles import (
    eval_fsum,
    flatten_map,
    row_cut_bound_loop,
    row_cut_tail_loop,
    row_weights,
    run_level_regraph_every_push,
    sample_shadow_pair,
)
from test_acceptance import BASE_CFG, BATTERY, _gt_solution
from test_graphtransform import _fast_cfg

SRC = Path(invcurve.__file__).resolve().parents[1]


@pytest.mark.parametrize("idx", range(len(BATTERY)))
def test_matrix_evaluator_matches_term_by_term(idx):
    # points well outside the working window, so that every power, not just
    # the leading ones, reaches the last bits of the sum; a point and an
    # array of points take different products and need not agree bit for bit
    eps = np.finfo(float).eps
    rng = np.random.default_rng(idx)
    for m in (BATTERY[idx], flatten_map(BATTERY[idx], 8)):
        xs, ys = rng.uniform(-1.2, 1.2, (2, 200))
        array = m.evaluator.values(xs, ys)
        for k, (x, y) in enumerate(zip(xs, ys)):
            point = m.evaluator.values(x, y)
            # NumPy scalars in, Python floats out
            assert all(type(v) is float for v in point)
            assert all(type(v) is float for v in m.evaluator.pair_image(x, y, 1e-9 * x, 1e-9 * y))
            for terms, at_point, in_array in zip(m.sorted_terms(), point, array):
                want, scale = eval_fsum(terms, float(x), float(y))
                assert abs(at_point - want) <= 32.0 * eps * scale
                assert abs(in_array[k] - want) <= 32.0 * eps * scale


def test_map_evaluates_as_its_series_embedding():
    # a MapSpec reaches its evaluator through its series embedding, so the
    # embedding at order 12 evaluates it bit for bit alike, on arrays and at
    # a point
    def bits(values):
        return np.asarray(values, dtype=float).tobytes()

    rng = np.random.default_rng(18)
    for m in BATTERY:
        ev, emb = m.evaluator, to_planar_series(m, 12).evaluator
        xs, ys = rng.uniform(-1.2, 1.2, (2, 200))
        assert bits(ev.values(xs, ys)) == bits(emb.values(xs, ys))
        for x, y, dx, dy in rng.uniform(-1.2, 1.2, (20, 4)).tolist():
            for op, args in (("values", (x, y)), ("image_jacobian", (x, y)),
                             ("pair_image", (x, y, 1e-9 * dx, 1e-9 * dy))):
                assert bits(getattr(ev, op)(*args)) == bits(getattr(emb, op)(*args))


@contextlib.contextmanager
def every_row():
    """The evaluator with its row choice patched to keep every y-power row,
    as it did before it dropped any."""
    with mock.patch.object(MapEvaluator, "_rows", lambda self, x, y: self._ny + 1):
        yield


def test_row_cut_leaves_the_battery_curves_unchanged():
    # in flattened coordinates every carried ordinate is tiny, so a push of
    # the order-16 square keeps 2 or 3 of its 17 y-power rows; the curves do
    # not move a bit
    kept = []
    rows = MapEvaluator._rows

    def spy(self, x, y):
        kept.append((rows(self, x, y), self._ny + 1))
        return kept[-1][0]

    with mock.patch.object(MapEvaluator, "_rows", spy):
        cut = [solve_manifold(m, BASE_CFG) for m in BATTERY]
    with every_row():
        full = [solve_manifold(m, BASE_CFG) for m in BATTERY]
    square_rows = max(_prepare(m, BASE_CFG)[1]._ev._ny + 1 for m in BATTERY)
    assert max(r for r, every in kept if every == square_rows) <= 4
    for (c_cut, _, d_cut), (c_full, _, d_full) in zip(cut, full):
        assert c_cut.xs.tobytes() == c_full.xs.tobytes()
        assert c_cut.fs.tobytes() == c_full.fs.tobytes()
        assert d_cut.gaps == d_full.gaps
        assert [lv.nu_bar for lv in d_cut.levels] == [lv.nu_bar for lv in d_full.levels]


# a table of 1 .. 13 y-power rows and 1 .. 13 x-power columns per component,
# some coefficients zero and the others of size 1e-3 .. 1e3, and points with
# |x| <= 1 and |y| <= ymax, ymax = 10^-30 .. 1
@st.composite
def _tables_and_points(draw):
    nx, ny = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    zeros, size = draw(st.floats(0.0, 1.0)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (2, ny + 1, nx + 1)
    coef = rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.integers(-3, 4, shape)
    coef[rng.random(shape) < zeros] = 0.0
    xs = rng.uniform(-1.0, 1.0, size)
    ys = 10.0 ** draw(st.floats(-30.0, 0.0)) * rng.uniform(-1.0, 1.0, size)
    return coef, xs, ys


@settings(max_examples=300, deadline=None)
@given(_tables_and_points())
def test_row_cut_changes_no_value_it_may_not(case):
    # the dropped rows add less than ROW_CUT |y| to each value, so the cut
    # moves a value by at most twice that, and not at all where the value is
    # 2^-5 |y| or more: half its ulp is then at least 2^-59 |y|
    coef, xs, ys = case
    ev = MapEvaluator(coef)
    got = ev.values(xs, ys)
    with every_row():
        want = ev.values(xs, ys)
    rows = ev._ny + 1
    for g, w in zip(got, want):
        assert np.all(np.abs(g - w) <= ROW_CUT * np.abs(ys) * rows)
        exact = np.abs(g) >= 2.0**-5 * np.abs(ys)
        assert np.array_equal(g[exact], w[exact])


@contextlib.contextmanager
def every_point_row():
    """The evaluator with its point row rule patched to keep every y-power row."""
    with mock.patch.object(MapEvaluator, "_point_rows", lambda self, *coords: self._ny + 1):
        yield


# the dropped rows move a sum by at most twice its bound, and not at all
# where the sum is 2^55 times its bound or more (2^-5 |y| for a value)
def _check_cut(got, want, bound):
    assert abs(got - want) <= 2.0 * bound
    if abs(got) >= 2.0**55 * bound:
        assert got == want


@settings(max_examples=300, deadline=None)
@given(_tables_and_points(), st.floats(-40.0, 0.0), st.floats(-40.0, 0.0), st.integers(0, 2**32 - 1))
def test_point_row_cut_changes_no_value_it_may_not(case, dx_exp, dy_exp, seed):
    # the bounds of the point rule (MapEvaluator docstring): ROW_CUT |y| on
    # a value or an image, whose partner may lie off both axes, nx ROW_CUT
    # |y| on an x-slope, ROW_CUT on a y-slope, and on the two parts of an
    # offset, each checked on an offset along its own axis: nx |dx| ymax
    # ROW_CUT along x (ymax = |y| there) and |dy| ROW_CUT along y
    coef, xs, ys = case
    ev = MapEvaluator(coef)
    nx, ny = ev._nx, ev._ny
    weights = row_weights(ev)

    def tail(r, ymax):  # sum_(j >= r) j S_j ymax^(j-1), from the top down
        return sum(weights[j] * ymax ** (j - 1) for j in range(ny, r - 1, -1))

    rng = np.random.default_rng(seed)
    dxs = 10.0**dx_exp * rng.uniform(-1.0, 1.0, xs.size) * (1.0 - np.abs(xs))
    dys = 10.0**dy_exp * rng.uniform(-1.0, 1.0, xs.size) * (1.0 - np.abs(ys))
    for x, y, dx, dy in zip(xs.tolist(), ys.tolist(), dxs.tolist(), dys.tolist()):
        ops = [("values", (x, y)), ("image_jacobian", (x, y)), ("pair_image", (x, y, dx, 0.0)),
               ("pair_image", (x, y, 0.0, dy)), ("pair_image", (x, y, dx, dy))]
        # the rule keeps the fewest rows, at least 2, whose bound is below
        # ROW_CUT, and the weighted tail of the rows it drops is below it
        r = ev._point_rows(x, y, x + dx, y + dy)
        ymax = max(abs(y), abs(y + dy))
        assert r == row_cut_bound_loop(ymax, weights)
        assert r == ny + 1 or tail(r, ymax) < ROW_CUT
        got = [getattr(ev, op)(*args) for op, args in ops]
        with every_point_row():
            want = [getattr(ev, op)(*args) for op, args in ops]
        for k in range(2):
            _check_cut(got[0][k], want[0][k], ROW_CUT * abs(y))
            _check_cut(got[1][k][0], want[1][k][0], ROW_CUT * abs(y))
            _check_cut(got[1][k][1], want[1][k][1], nx * ROW_CUT * abs(y))
            _check_cut(got[1][k][2], want[1][k][2], ROW_CUT)
            for g, w in zip(got[2:], want[2:]):
                _check_cut(g[k], w[k], ROW_CUT * abs(y))
            _check_cut(got[2][2 + k], want[2][2 + k], nx * abs(dx) * abs(y) * ROW_CUT)
            _check_cut(got[3][2 + k], want[3][2 + k], abs(dy) * ROW_CUT)


# weight lists w_2 .. w_ny for ny = 2 .. 15, zero weights allowed and sizes
# up to 1e300 (past CUT_WEIGHT), with ymax 0, 1, any value in [0, 1], one
# whose powers underflow, or one where the tail at some row lies within a
# few ulps of ROW_CUT
@st.composite
def _weights_and_ymax(draw):
    ny = draw(st.integers(2, 15))
    weight = st.one_of(st.just(0.0), st.floats(1e-6, 1e6), st.floats(0.0, 1e300))
    ws = draw(st.lists(weight, min_size=ny - 1, max_size=ny - 1))
    kind = draw(st.sampled_from(["zero", "one", "any", "underflow", "edge"]))
    if kind == "zero":
        ymax = 0.0
    elif kind == "one":
        ymax = 1.0
    elif kind == "any":
        ymax = draw(st.floats(0.0, 1.0))
    elif kind == "underflow":
        ymax = 10.0 ** draw(st.floats(-320.0, -20.0))
    else:  # row j's term at ROW_CUT give or take ulps, the rows above it zero
        j = draw(st.integers(2, ny))
        ymax = 10.0 ** draw(st.floats(-12.0, 0.0))
        w = ROW_CUT / ymax ** (j - 1)
        for _ in range(abs(step := draw(st.integers(-3, 3)))):
            w = math.nextafter(w, math.inf if step > 0 else 0.0)
        ws = [v if k < j else w if k == j else 0.0 for k, v in enumerate(ws, start=2)]
    return ymax, [(j, ws[j - 2]) for j in range(ny, 1, -1)]


@settings(max_examples=500, deadline=None)
@given(_weights_and_ymax())
# tails an ulp or two from ROW_CUT, where ymax^(j-1) by repeated products
# and by `**` round to different sides
@example((9.043574673668495e-06, [(4, 0.0011726809585032951), (3, 1.0), (2, 1.0)]))
@example((1.3049650012619626e-12, [(6, 2.2919542226718853e41), (5, 1.0), (4, 1.0), (3, 1.0), (2, 1.0)]))
# w_2 = 0: the bound at r = 2 rests on W_3 ymax^2 alone
@example((2.914149330986018e-07, [(5, 1.0), (4, 1.0), (3, 0.556531079511385), (2, 0.0)]))
# weights above CUT_WEIGHT with ymax^3 subnormal, where an underflowed power
# could hide a tail above ROW_CUT: every row counts
@example((3.959055983870231e-107, [(4, 1.3977222240168368e301), (3, 1.0), (2, 1.0)]))
@example((2.691004553730898e-107, [(4, 4.4508963677518725e301), (3, 4.4508963677518725e301), (2, 0.0)]))
def test_row_rule_keeps_at_least_the_tail_loops_rows(case):
    # the rule is its bound loop, and the bound is above the tail, so it
    # never keeps fewer rows than the walk over the float tail
    ymax, droppable = case
    weights = [0.0, 0.0] + [w for _, w in reversed(droppable)]
    every = len(weights)
    r = _cut(ymax, _cut_table(weights), every)
    assert r == row_cut_bound_loop(ymax, weights)
    assert r >= row_cut_tail_loop(ymax, droppable)
    if not sum(weights) <= CUT_WEIGHT:
        assert r == every


def test_row_rule_chooses_the_walks_rows_on_the_solver_traffic():
    # on the pushes of the battery solves, and on the certify workload's
    # kind of shadowing step (a flattened battery map, a pair in the
    # hypotheses' box), the bound cuts exactly where the walk over the float
    # tail does
    seen = []
    rows = MapEvaluator._rows

    def spy(self, x, y):
        seen.append((self, float(np.abs(x).max()), float(np.abs(y).max()), rows(self, x, y)))
        return seen[-1][-1]

    with mock.patch.object(MapEvaluator, "_rows", spy):
        for m in BATTERY:
            solve_manifold(m, BASE_CFG)
    cut = 0
    for ev, xmax, ymax, r in seen:
        droppable = list(enumerate(row_weights(ev)))[:1:-1]
        want = row_cut_tail_loop(ymax, droppable) if xmax <= 1.0 and ymax <= 1.0 else ev._ny + 1
        assert r == want
        cut += r < ev._ny + 1
    assert cut > len(seen) // 2
    rng = np.random.default_rng(5)
    for m in BATTERY[2:5]:
        ev = flatten_map(m, 8).evaluator
        droppable = list(enumerate(row_weights(ev)))[:1:-1]
        for _ in range(50):
            p, q = (pair := sample_shadow_pair(rng, 0.05, 8)).p, pair.q
            r = ev._point_rows(p.x, p.y, q.x, q.y)
            assert r == row_cut_tail_loop(max(abs(p.y), abs(q.y)), droppable) < ev._ny + 1


@pytest.mark.parametrize(
    "x_far, y_bad",
    [(1.5, 0.0), (0.5, 1e200), (0.5, math.nan), (0.5, math.inf), (0.5, -math.inf)],
    ids=["x beyond 1", "y beyond 1", "NaN in y", "inf in y", "-inf in y"],
)
def test_row_cut_keeps_every_row_outside_its_bound(x_far, y_bad):
    m = flatten_map(BATTERY[2], 8)
    ev = m.evaluator
    # at a point, the value in any of x, xh, y and yh
    bad = x_far if x_far > 1.0 else y_bad
    point = [0.05, 5e-17, 0.05, 5e-17]
    assert ev._point_rows(*point) < ev._ny + 1
    for k in range(4):
        x, y, xh, yh = coords = point[:k] + [bad] + point[k + 1 :]
        assert ev._point_rows(*coords) == ev._ny + 1
        got = ev.pair_image(x, y, xh - x, yh - y)
        with every_point_row():
            want = ev.pair_image(x, y, xh - x, yh - y)
        np.testing.assert_array_equal(got, want)
    # on arrays
    xs = np.linspace(0.0, 0.05, 8)
    ys = 1e-15 * xs
    assert ev._rows(xs, ys) == 3 < ev._ny + 1
    xs[-1], ys[-2] = x_far, y_bad
    assert ev._rows(xs, ys) == ev._ny + 1
    with np.errstate(over="ignore", invalid="ignore"):  # y^12 and inf * 0
        big_x, big_y = ev.values(xs, ys)
        with every_row():
            want = ev.values(xs, ys)
    if math.isnan(y_bad):
        assert math.isnan(big_x[-2]) and math.isnan(big_y[-2])
    np.testing.assert_array_equal(big_x, want[0])
    np.testing.assert_array_equal(big_y, want[1])


def test_end_slope_clamps():
    # the one-sided estimate (3 m0 - m1) / 2 has the wrong sign: clamp to 0
    assert _end_slope(1.0, 1.0, 1.0, 5.0) == 0.0
    # secants change sign and the estimate overshoots 3 m0: clamp to 3 m0
    assert _end_slope(1.0, 1.0, 1.0, -10.0) == 3.0
    # otherwise the estimate stands
    assert _end_slope(1.0, 1.0, 1.0, 2.0) == 0.5


def _pchip_cases(rng):
    for trial in range(60):
        n = int(rng.integers(4, 40))
        x = np.cumsum(rng.uniform(0.01, 1.0, n))
        kind = trial % 3
        if kind == 0:
            y = rng.normal(size=n)  # sign changes of the secants
        elif kind == 1:
            y = np.round(rng.normal(size=n))  # flat runs
        else:
            y = 1e-3 * np.sin(3.0 * x)
        yield x, y
    # both end clamps, at either end
    x = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    yield x, np.array([0.0, 1.0, 6.0, 2.0, -8.0, -7.0])  # 0 at the start, 3 m0 at the end
    yield x, np.array([0.0, 1.0, -9.0, -4.0, 1.0, 2.0])  # 3 m0 at the start, 0 at the end


def _end_clamp(h0, h1, m0, m1):
    """Which clamp, if any, the end-slope rule applies (restated from its definition)."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return "zero"
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return "three"
    return None


def test_pchip_matches_scipy():
    rng = np.random.default_rng(2024)
    clamps = set()
    for x, y in _pchip_cases(rng):
        q = np.sort(rng.uniform(x[0], x[-1], 97))
        q[0], q[-1] = x[0], x[-1]
        q = np.concatenate((q, x))  # the nodes themselves, and unsorted queries
        ref = ScipyPchip(x, y, extrapolate=False)(q)
        np.testing.assert_array_equal(PchipInterpolator(x, y)(q), ref)
        h, m = np.diff(x), np.diff(y) / np.diff(x)
        clamps.add(_end_clamp(h[0], h[1], m[0], m[1]))
        clamps.add(_end_clamp(h[-1], h[-2], m[-1], m[-2]))
    assert {"zero", "three"} <= clamps


@pytest.mark.parametrize("idx", range(len(BATTERY)))
def test_curve_eval_matches_scipy(idx):
    curve, _, _ = _gt_solution(idx)
    ref = ScipyPchip(curve.xs[1:], curve.scaled, extrapolate=False)
    rng = np.random.default_rng(idx)
    x = np.concatenate((
        [0.0, curve.x_max, curve.x_max * (1.0 + 1e-12)],
        curve.xs,
        curve.xs[1] * rng.uniform(0.0, 1.0, 20),
        rng.uniform(0.0, curve.x_max, 200),
    ))
    clamped = np.minimum(x, curve.x_max)
    want = ref(np.maximum(clamped, curve.xs[1])) * clamped**3
    np.testing.assert_array_equal(curve.eval(x), want)
    np.testing.assert_array_equal([curve.eval(float(v)) for v in x[:60]], want[:60])


def test_regraph_rejects_queries_outside_the_image():
    kernel = _PushKernel(pert(), 64)
    big_x = 0.01 * kernel.unit
    big_y = 0.1 * big_x**3
    np.testing.assert_allclose(kernel.regraph(big_x, big_y)[1], big_y, rtol=1e-15, atol=0)
    # without the first positive image node, the grid's first positive node
    # (1e-6 X_max) lies below the data
    with pytest.raises(GuardError, match="left the image range"):
        kernel.regraph(np.delete(big_x, 1), np.delete(big_y, 1))
    big_y[5] = np.inf
    with pytest.raises(GuardError, match=r"image ordinate Y = inf is not finite at X = "):
        kernel.regraph(big_x, big_y)


def test_image_guards_trip_on_nan(monkeypatch):
    kernel = _PushKernel(flatten_map(BATTERY[2], 8), 64)
    xs = 0.01 * kernel.unit
    fs = 1e-3 * xs**3
    fs[10] = np.nan  # a NaN ordinate keeps every row and spoils X and Y
    with pytest.raises(GuardError, match="image abscissas stall at x = "):
        kernel.image(xs, fs)
    # a NaN in Y alone passes the monotonicity guard and trips the cap
    big_x, big_y = kernel._ev.values(xs, 1e-3 * xs**3)
    big_y[10] = np.nan
    monkeypatch.setattr(kernel, "_ev", SimpleNamespace(values=lambda x, y: (big_x, big_y)))
    with pytest.raises(GuardError, match=r"\|F\|/x\^3 reached nan after the push"):
        kernel.image(xs, fs)


def _origin_moved(monkeypatch):
    kernel = _PushKernel(pert(), 64)
    xs = 0.01 * kernel.unit
    big_x, big_y = kernel._ev.values(xs, 0.0 * xs)
    monkeypatch.setattr(kernel, "_ev", SimpleNamespace(values=lambda x, y: (big_x + 1e-3, big_y)))
    kernel.image(xs, 0.0 * xs)


def _regraph_short(monkeypatch):
    # without the first positive image node the grid starts below the data
    kernel = _PushKernel(pert(), 64)
    big_x = 0.01 * kernel.unit
    kernel.regraph(np.delete(big_x, 1), np.delete(0.1 * big_x**3, 1))


def _regraph_not_finite(monkeypatch):
    # finite ordinates whose scaled secants overflow in the interpolant
    kernel = _PushKernel(pert(), 64)
    big_x = 0.01 * kernel.unit
    with np.errstate(all="ignore"):
        kernel.regraph(big_x, 1e300 * big_x**3 * np.where(np.arange(64) % 2, 1.0, -1.0))


def _x_max_stalls(monkeypatch):
    # X = x - x^2 is monotone on the seed but moves x_max back
    fx = Series2.from_terms({(1, 0): 1.0, (2, 0): -1.0}, 4)
    kernel = _PushKernel(PlanarSeriesMap(fx, -Series2.y(4), 4), 64)
    _run_level(kernel, 0.01, SolverConfig())


@pytest.mark.parametrize(
    "trip, message",
    [
        pytest.param(
            _origin_moved, "image of the origin moved off the origin, to (0.001, 0)", id="origin"
        ),
        pytest.param(
            _regraph_short,
            "re-graph interpolation left the image range: grid [1e-08, 0.01], "
            "image abscissas [1.24961e-08, 0.01]",
            id="image-range",
        ),
        pytest.param(
            _regraph_not_finite,
            "re-graph interpolation of Y/X^3 is not finite: nan at X = 1e-08",
            id="regraph-not-finite",
        ),
        pytest.param(
            _x_max_stalls,
            "x_max failed to increase during a push at rho=0.01: 0.0099 after 0.01",
            id="x-max",
        ),
    ],
)
def test_guard_messages_name_their_values(monkeypatch, trip, message):
    with pytest.raises(GuardError, match=f"^{re.escape(message)}$"):
        trip(monkeypatch)


def test_regraph_and_curve_eval_build_the_module_interpolator(monkeypatch):
    # both look the class up by its module name, so a subclass bound there
    # (a profiler's, say) sees every build
    built = []

    class Counting(PchipInterpolator):
        def __init__(self, xk, yk):
            built.append(xk.size)
            super().__init__(xk, yk)

    monkeypatch.setattr(graphtransform, "PchipInterpolator", Counting)
    out, _ = push_curve(pert(), seed_curve(0.01, 64))
    assert built == [63]
    out.eval(0.005)
    assert built == [63, 63]


@pytest.mark.parametrize("m", [pert(c=0.1), BATTERY[2]])
def test_push_curve_is_the_first_level_step(m):
    rho, size = 0.01, 256
    # delta just above rho: the level ends after one push
    cfg = SolverConfig(delta=rho + 0.5 * rho * rho, rho0=rho, grid_size=size)
    levels, _ = rho_refinement(m, cfg, 1)
    assert levels[0].nu_bar == 1
    f = flatten_map(m, cfg.norm_order, headroom=2)
    out, cert = push_curve(compose_maps(f, f), seed_curve(rho, size))
    assert np.array_equal(levels[0].curve.xs, out.xs)
    assert np.array_equal(levels[0].curve.fs, out.fs)
    assert levels[0].min_dxdx == cert.min_dxdx
    assert levels[0].max_drift_c == cert.xmax_drift_c


@pytest.mark.parametrize("idx", range(len(BATTERY)))
def test_carried_points_match_regraph_every_push(idx):
    _, kernel = _prepare(BATTERY[idx], BASE_CFG)
    _, _, diag = _gt_solution(idx)
    grid = _comparison_grid(BASE_CFG.delta)
    for lv in diag.levels:
        pushes, curve = run_level_regraph_every_push(kernel, lv.rho, BASE_CFG)
        assert lv.nu_bar == pushes
        assert np.max(np.abs(lv.curve.eval(grid) - curve.eval(grid))) <= 1e-16
        assert 1 <= lv.regraphs <= 12


def _carried_images(m, rho, size, pushes):
    """Images of the flat seed under 1..pushes pushes, none re-graphed."""
    xs = rho * graded_grid(1.0, size)
    fs = np.zeros_like(xs)
    out = []
    for _ in range(pushes):
        xs, fs = m.evaluator.values(xs, fs)
        out.append((xs, fs))
    return out


def test_monotonicity_guard_on_a_carried_push(monkeypatch):
    # F ~ c x^3 after one push; the mu x y term then folds the abscissas
    m, rho, size = pert(1.0, -1.0, 1e6), 0.0125, 512
    (x1, y1), (x2, _) = _carried_images(m, rho, size, 2)
    kernel = _PushKernel(m, size)
    assert not kernel.spread_doubled(x1)
    bad = int(np.argmin(np.diff(x2) > 0.0))
    want = f"graph monotonicity guard failed: image abscissas stall at x = {x1[bad]:.6g}"
    monkeypatch.setattr(graphtransform, "BOUND_CAP", 1e12)
    with pytest.raises(GuardError) as err:
        _run_level(kernel, rho, SolverConfig(rho0=rho))
    assert str(err.value) == want


def _check_bound_cap(monkeypatch, c):
    # the x^2 y term of Y triples |F|/x^3 per push near x = 0.0125; the
    # sign of the c x^3 term sets the sign of F after each push
    m = MapSpec({(1, 0): 1.0, (2, 0): 1.0}, {(0, 1): -1.0, (1, 1): 1.0, (2, 1): -1e4, (3, 0): c})
    rho, size = 0.0125, 512
    images = _carried_images(m, rho, size, 3)
    signed = [y[1:] / x[1:] ** 3 for x, y in images]
    worst = [float(np.max(np.abs(r))) for r in signed]
    assert worst[2] == float(np.max(np.sign(c) * signed[2]))
    assert worst[0] < worst[1] < worst[2]
    kernel = _PushKernel(m, size)
    assert not any(kernel.spread_doubled(x) for x, _ in images)
    cap = 0.5 * (worst[1] + worst[2])
    want = f"|F|/x^3 reached {worst[2]:.3e} after the push, above the cap {cap:.3e}"
    monkeypatch.setattr(graphtransform, "BOUND_CAP", cap)
    with pytest.raises(GuardError) as err:
        _run_level(kernel, rho, SolverConfig(rho0=rho))
    assert str(err.value) == want


def test_bound_cap_on_a_carried_push(monkeypatch):
    _check_bound_cap(monkeypatch, 1.0)


def test_bound_cap_on_a_carried_push_below_the_axis(monkeypatch):
    _check_bound_cap(monkeypatch, -1.0)


def test_graded_grid_is_a_scaled_unit_grid():
    unit = graded_grid(1.0, 300)
    for x_max in (1e-3, 0.0123, 0.05):
        assert np.array_equal(graded_grid(x_max, 300), x_max * unit)


def test_repeated_solves_are_bitwise_identical():
    m = BATTERY[3]
    first, cert1, diag1 = solve_manifold(m, _fast_cfg())
    second, cert2, diag2 = solve_manifold(m, _fast_cfg())
    assert np.array_equal(first.xs, second.xs)
    assert np.array_equal(first.fs, second.fs)
    assert diag1.gaps == diag2.gaps
    assert cert1 == cert2


_FAULT_PROBE = """
import resource, sys
import invcurve as ic
m = ic.parse_map_spec(sys.stdin.read())
cfg = ic.SolverConfig(rho0=0.05 / 4)
ic.solve_manifold(m, cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
_, _, diag = ic.solve_manifold(m, cfg)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(sum(lv.nu_bar for lv in diag.levels), faults)
"""


def test_solve_makes_no_fresh_pages_per_push():
    # A push that builds a 512 x n_terms monomial matrix (0.5 MB here) gets
    # fresh pages every time, about 190 faults per push.  The count is taken
    # in a fresh interpreter: how the allocator hands out large blocks
    # depends on what the process allocated before.
    pytest.importorskip("resource")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE],
        input=format_map_spec(BATTERY[2]),
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
        check=True,
    )
    pushes, faults = map(int, done.stdout.split())
    assert pushes > 100
    assert faults < 5 * pushes


def test_cli_import_leaves_scipy_interpolate_unloaded():
    # in a fresh interpreter: this test module itself imports scipy.interpolate
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import sys, invcurve.cli; print('scipy.interpolate' in sys.modules); "
        "print(sorted(k for k in sys.modules if k == 'scipy' or k.startswith('scipy.')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120, check=True
    )
    assert done.stdout.splitlines() == ["False", "[]"]
