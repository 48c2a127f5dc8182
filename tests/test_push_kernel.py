"""The graph-transform push kernel against its references.

The kernel evaluates the map with the map's dense-matrix evaluator and
re-graphs with a private PCHIP; these tests hold the evaluator to the
exactly summed terms and the PCHIP to SciPy, and check that every push path
gives the same curves.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

import invcurve
from invcurve import (
    SolverConfig,
    format_map_spec,
    graded_grid,
    pert,
    push_curve,
    rho_refinement,
    seed_curve,
    solve_manifold,
)
from invcurve.graphtransform import _end_slope, _pchip_regraph
from oracles import eval_fsum, flatten_map
from test_acceptance import BATTERY
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
            assert all(type(v) is float for v in point)
            for terms, at_point, in_array in zip(m.sorted_terms(), point, array):
                want, scale = eval_fsum(terms, float(x), float(y))
                assert abs(at_point - want) <= 32.0 * eps * scale
                assert abs(in_array[k] - want) <= 32.0 * eps * scale


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


def test_private_pchip_matches_scipy():
    rng = np.random.default_rng(2024)
    clamps = set()
    for x, y in _pchip_cases(rng):
        q = np.sort(rng.uniform(x[0], x[-1], 97))
        q[0], q[-1] = x[0], x[-1]
        ref = PchipInterpolator(x, y, extrapolate=False)(q)
        np.testing.assert_allclose(_pchip_regraph(x, y, q), ref, rtol=1e-13, atol=0)
        h, m = np.diff(x), np.diff(y) / np.diff(x)
        clamps.add(_end_clamp(h[0], h[1], m[0], m[1]))
        clamps.add(_end_clamp(h[-1], h[-2], m[-1], m[-2]))
    assert {"zero", "three"} <= clamps


def test_private_pchip_rejects_points_outside_the_data():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    y = np.array([0.0, 1.0, 0.5, 2.0])
    assert _pchip_regraph(x, y, np.array([-0.1, 1.0])) is None
    assert _pchip_regraph(x, y, np.array([1.0, 3.0 + 1e-12])) is None


@pytest.mark.parametrize("m", [pert(c=0.1), BATTERY[2]])
def test_push_curve_is_the_first_level_step(m):
    rho, size = 0.01, 256
    # delta just above rho: the level ends after one push
    cfg = SolverConfig(delta=rho + 0.5 * rho * rho, rho0=rho, grid_size=size)
    levels, _ = rho_refinement(m, cfg, 1)
    assert levels[0].nu_bar == 1
    out, cert = push_curve(flatten_map(m, 8), seed_curve(rho, size), n_power=8, m_max=2)
    assert np.array_equal(levels[0].curve.xs, out.xs)
    assert np.array_equal(levels[0].curve.fs, out.fs)
    assert levels[0].min_dxdx == cert.min_dxdx
    assert levels[0].max_drift_c == cert.xmax_drift_c


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
    assert pushes > 200
    assert faults < 1000
