import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from invcurve import (
    ConvergenceError,
    Curve,
    DomainError,
    GuardError,
    MapSpec,
    PlanarSeriesMap,
    Series1,
    Series2,
    SolverConfig,
    bound_certificate,
    build_psi,
    canon,
    compose_maps,
    graded_grid,
    graph_invariance_check,
    graphtransform,
    invariance_residual,
    orbit_shadow_experiment,
    parameterize_manifold,
    pert,
    push_curve,
    repulsion_check,
    rho_refinement,
    seed_curve,
    solve_conjugacy,
    solve_manifold,
    tangency_fit,
    to_planar_series,
)
from invcurve.graphtransform import _comparison_grid, brentq
from invcurve.normalform import normalize_map
from oracles import (
    acceptance_battery,
    flatten_map,
    invariance_residual_forward_per_sample,
    invariance_residual_per_sample,
    random_form2_map,
)


class TestGrid:
    def test_shape_and_span(self):
        g = graded_grid(0.05, 512)
        assert g[0] == 0.0 and g[-1] == 0.05 and g.size == 512
        assert g[1] == pytest.approx(0.05e-6, rel=1e-12)
        assert np.all(np.diff(g) > 0)

    def test_curve_validation(self):
        g = graded_grid(0.1, 64)
        with pytest.raises(ValueError, match="origin"):
            Curve(g, np.ones_like(g))
        with pytest.raises(ValueError, match="increasing"):
            Curve(np.array([0.0, 0.2, 0.1, 0.3]), np.zeros(4))

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: graded_grid(-1.0, 64), "x_max = -1.0 must be positive and finite"),
            (lambda: graded_grid(float("nan"), 64), "x_max = nan must be positive"),
            (lambda: graded_grid(0.1, 4), "grid size = 4 must be at least 8"),
            (
                lambda: graded_grid(1e-320, 64),
                "x_max = 1e-320 is too small: x_max * GRID_SPAN = 0 is not a normal float",
            ),
            (lambda: Curve(np.zeros(3), np.zeros(4)), "got shapes xs (3,) and fs (4,)"),
            (lambda: Curve(np.arange(4.0), np.arange(4.0) + 1.0), "starts at (0, 1)"),
            (
                lambda: Curve(np.array([0.0, 0.2, 0.1, 0.3]), np.zeros(4)),
                "increasing: xs[2] = 0.1 after xs[1] = 0.2",
            ),
            (
                lambda: Curve(np.arange(4.0), np.array([0.0, 1.0, np.nan, 1.0])),
                "must be finite: F = nan at x = 2",
            ),
            (
                lambda: Curve(np.array([0.0, 1.0, 2.0, np.inf]), np.zeros(4)),
                "must be finite: F = 0.0 at x = inf",
            ),
            (lambda: bound_certificate(seed_curve(0.1, 64), 8, 4), "m_max = 4 must be"),
            (lambda: bound_certificate(seed_curve(0.1, 8), 8, 2), "8 nodes, need 16"),
            (
                lambda: invariance_residual(canon(), Curve(np.array([0.0, 0.6, 0.8, 1.0]),
                                                           np.zeros(4))),
                "no positive nodes in (0, x_max/2 = 0.5]",
            ),
            (
                lambda: seed_curve(0.05, 64).eval(np.array([0.01, -0.5, 0.2])),
                "evaluation outside the curve domain [0, x_max = 0.05]: x = -0.5",
            ),
            (
                lambda: repulsion_check(canon(), seed_curve(0.05, 64), 0.06, 0.0, 3),
                "x0 outside the sampled curve domain: x0 = 0.06, x_max = 0.05",
            ),
            (
                lambda: repulsion_check(canon(), seed_curve(0.05, 64), 0.04, 0.0, 3),
                "need 0 < x0 <= delta/2: x0 = 0.04, delta = 0.05",
            ),
            (
                lambda: repulsion_check(canon(), seed_curve(0.05, 64), 0.02, 1e-5, 3),
                "offset must satisfy |offset| <= x0^3: offset = 1e-05, x0 = 0.02",
            ),
            (
                lambda: tangency_fit(Curve(np.linspace(0.0, 1.0, 6), np.zeros(6))),
                "need at least 8 samples in the smallest grid decade, got 5",
            ),
            (
                lambda: graph_invariance_check(pert(), Series1.identity(), -1),
                "order = -1 must not be negative",
            ),
        ],
    )
    def test_argument_errors_are_typed_and_name_their_value(self, call, message):
        with pytest.raises(DomainError, match=re.escape(message)) as err:
            call()
        assert isinstance(err.value, ValueError)

    def test_eval_clamps_and_extends(self):
        g = graded_grid(0.1, 64)
        c = Curve(g, 2.0 * g**3)
        assert c.eval(0.0) == 0.0
        assert c.eval(g[1] / 7.0) == pytest.approx(2.0 * (g[1] / 7.0) ** 3, rel=1e-9)
        with pytest.raises(ValueError, match="domain"):
            c.eval(0.2)
        assert c.eval(np.array([])).shape == (0,)

    def test_eval_rejects_nan(self):
        c = seed_curve(0.05, 64)
        with pytest.raises(ValueError, match="outside the curve domain"):
            c.eval(float("nan"))
        with pytest.raises(ValueError, match="outside the curve domain"):
            c.eval(np.array([0.0, np.nan, 0.01]))


@pytest.fixture(scope="module")
def battery_solves():
    maps = acceptance_battery(1729)
    return maps, [solve_manifold(m, SolverConfig()) for m in maps]


@pytest.fixture(scope="module")
def battery_curves(battery_solves):
    maps, solves = battery_solves
    return maps, [curve for curve, _, _ in solves]


class TestCurveEvalOnTheBattery:
    def test_below_the_first_node_is_the_held_cubic(self, battery_curves):
        rng = np.random.default_rng(3)
        for c in battery_curves[1]:
            x = np.concatenate(([0.0], c.xs[1] * rng.uniform(0.0, 1.0, 50)))
            assert c.eval(x).tobytes() == (c.scaled[0] * x**3).tobytes()

    def test_scalar_call_is_the_array_element(self, battery_curves):
        # the scalar path (Python floats and np.power) against the array
        # path, bit for bit, for float, np.float64 and 0-d inputs at every
        # node, the domain's ends, below the first node and at random points
        rng = np.random.default_rng(4)
        for c in battery_curves[1]:
            x = np.concatenate((
                c.xs,
                [0.0, c.x_max, c.x_max * (1.0 + 1e-13), c.x_max * (1.0 + 1e-12)],
                c.xs[1] * rng.uniform(0.0, 1.0, 20),
                rng.uniform(0.0, c.x_max, 2000),
                np.geomspace(c.xs[1], c.x_max, 40),
            ))
            want = c.eval(x).tobytes()
            for kind in (float, np.float64, np.array):
                assert np.array([c.eval(kind(v)) for v in x.tolist()]).tobytes() == want, kind
            assert c.eval(0) == 0.0 and type(c.eval(np.array(0.01))) is float
            for bad in (1, -1e-300, c.x_max * 1.01, math.nan, math.inf):
                with pytest.raises(DomainError) as scalar:
                    c.eval(bad)
                with pytest.raises(DomainError) as array:
                    c.eval(np.array([bad]))
                assert str(scalar.value) == str(array.value)


class TestPushCurve:
    def test_canonical_seed_push_is_exact(self):
        rho = 0.01
        seed = seed_curve(rho, 128)
        out, cert = push_curve(canon(), seed)
        assert out.x_max == pytest.approx(rho + rho**2, rel=1e-15)
        assert np.all(out.fs == 0.0)
        assert cert.xmax_drift_c == 0.0
        assert cert.min_dxdx >= 1.0

    def test_square_push_reads_its_own_drift(self):
        # on the x-axis CANON's square is x + 2x^2 + 2x^3 + x^4: the drift
        # constant is taken against the pushed map's x + 2x^2, and is 2 + x
        f = to_planar_series(canon(), 12)
        _, cert = push_curve(compose_maps(f, f), seed_curve(0.01, 128))
        assert cert.xmax_drift_c == pytest.approx(2.01, rel=1e-9)

    def test_drift_constant_is_reported(self):
        seed = seed_curve(0.02, 128)
        _, cert = push_curve(pert(1.0, 0.5, 0.3), seed)
        assert np.isfinite(cert.xmax_drift_c)

    def test_perturbed_seed_push_stays_cubic(self):
        rho = 0.05
        out, _ = push_curve(pert(c=0.1), seed_curve(rho, 256))
        pos = out.xs[1:]
        assert np.all(np.abs(out.fs[1:]) <= 0.1 * pos**3 * (1.0 + 1e-9))

    def test_monotonicity_guard_trips(self):
        # an oscillating, steep curve under mu != 0 folds the image over
        xs = np.linspace(0.0, 0.4, 128)
        fs = np.zeros_like(xs)
        fs[1:] = 0.5 * xs[1:] * np.where(np.arange(127) % 2 == 0, 1.0, -1.0)
        curve = Curve(xs, fs)
        with pytest.raises(GuardError, match="monotonicity"):
            push_curve(canon(1.0, -1.0), curve)

    def test_bound_preserved_under_push(self):
        # curves below x^N stay below X^N after one push of a flattened map
        rng = np.random.default_rng(12)
        for raw in (canon(), pert(c=0.1)):
            fm = flatten_map(raw, 8)
            for _ in range(5):
                rho = rng.uniform(0.005, 0.04)
                xs = graded_grid(rho, 256)
                fs = np.zeros_like(xs)
                fs[1:] = rng.uniform(-0.9, 0.9) * xs[1:] ** 8
                out, _ = push_curve(fm, Curve(xs, fs))
                assert np.all(np.abs(out.fs[1:]) <= out.xs[1:] ** 8 * (1 + 1e-9))


class TestBoundCertificate:
    def test_zero_curve(self):
        c = seed_curve(0.05, 256)
        cert = bound_certificate(c, 8, 2)
        assert cert.ks == (0.0, 0.0, 0.0)

    def test_pure_power_curve(self):
        g = graded_grid(0.5, 512)
        c = Curve(g, g**8)
        cert = bound_certificate(c, 8, 1)
        assert cert.ks[0] == pytest.approx(1.0, abs=1e-6)
        assert cert.ks[1] == pytest.approx(8.0, rel=1e-2)

    def test_sparse_grid_rejected(self):
        xs = graded_grid(0.1, 16)
        with pytest.raises(ValueError, match="sparse"):
            bound_certificate(Curve(xs, np.zeros_like(xs)), 8, 3)

    def test_converged_perturbed_curve_against_cubic_envelope(self):
        # measured against N = 3, the envelope constant is the leading coefficient
        curve, _, _ = solve_manifold(pert(c=0.1), _fast_cfg())
        cert = bound_certificate(curve, 3, 0)
        assert cert.ks[0] == pytest.approx(0.05, rel=1e-2)


class TestSolveManifold:
    def test_canonical_curve_is_flat(self):
        cfg = _fast_cfg()
        curve, cert, diag = solve_manifold(canon(0.5, -1.0), cfg)
        assert np.max(np.abs(curve.fs)) <= 1e-12
        assert diag.gaps[-1] <= cfg.tol_converge

    def test_perturbed_leading_coefficient(self):
        curve, _, diag = solve_manifold(pert(c=0.1), _fast_cfg())
        a3, report = tangency_fit(curve)
        assert a3 == pytest.approx(0.05, rel=1e-2)
        assert report.cubic_bounded

    def test_growth_law_along_trace(self):
        _, _, diag = solve_manifold(pert(c=0.4), _fast_cfg())
        for lv in diag.levels:
            assert lv.growth_margin_min >= 0.0
            t = lv.x_max_trace
            assert np.all(np.diff(t) > 0)

    def test_min_slope_certificate(self):
        _, cert, _ = solve_manifold(pert(c=0.1), _fast_cfg())
        assert cert.min_dxdx >= 1.0 - 1e-13

    def test_nonconvergence_raises_with_history(self, monkeypatch):
        monkeypatch.setattr(graphtransform, "MAX_LEVELS", 2)
        with pytest.raises(ConvergenceError, match="after 2 levels$") as err:
            solve_manifold(pert(c=0.1), _fast_cfg(tol_converge=1e-30))
        assert len(err.value.history) == 1

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(rho0=0.1, delta=0.05).validate()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(rho0=0.06), "rho0 = 0.06 must lie in (0, delta = 0.05)"),
            (dict(rho0=-0.01), "rho0 = -0.01 must lie in (0, delta = 0.05)"),
            (dict(tol_converge=0.0), "tol_converge = 0 must be positive"),
            (dict(norm_order=2), "norm_order = 2 must be at least 3"),
            (dict(grid_size=32), "grid_size = 32 must be at least 64"),
            (dict(m_max=4), "m_max = 4 must be between 0 and 3"),
            (dict(rho_factor=1.0), "rho_factor = 1 must lie in (0, 1)"),
            (dict(delta=float("inf")), "delta = inf must be finite"),
            (dict(delta=-0.05), "delta = -0.05 must be positive"),
            (dict(delta=0.0), "delta = 0 must be positive"),
            (dict(grid_size=64.5), "grid_size = 64.5 must be an integer"),
            (dict(norm_order=8.5), "norm_order = 8.5 must be an integer"),
            (dict(m_max=1.5), "m_max = 1.5 must be an integer"),
            (
                dict(delta=1e-320),
                "delta = 1e-320 is too small: delta * COMPARE_SPAN = 0 is not a normal float",
            ),
            (
                dict(rho0=1e-320),
                "rho0 = 1e-320 is too small: rho0 * GRID_SPAN = 0 is not a normal float",
            ),
            (
                dict(rho0=5e-324),
                "rho0 = 5e-324 is too small: rho0 * GRID_SPAN = 0 is not a normal float",
            ),
            (
                dict(rho_factor=1e-320),
                "rho_factor = 1e-320 is too small: "
                "the last level's rho0 * rho_factor^7 * GRID_SPAN = 0 is not a normal float",
            ),
            (
                dict(rho_factor=5e-324),
                "rho_factor = 5e-324 is too small: "
                "the last level's rho0 * rho_factor^7 * GRID_SPAN = 0 is not a normal float",
            ),
            (
                dict(rho0=1e-9),
                "rho0 = 1e-09 is too small: the first level needs about 5e+08 pushes, "
                "above PUSH_BUDGET = 100000",
            ),
            (
                dict(rho_factor=1e-6),
                "rho_factor = 1e-06 is too small for rho0 = 0.045: the second level, at "
                "rho0 * rho_factor = 4.5e-08, needs about 1.11e+07 pushes, "
                "above PUSH_BUDGET = 100000",
            ),
        ],
    )
    def test_invalid_config_names_its_value(self, overrides, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            SolverConfig(**overrides).validate()

    def test_push_budget_bounds_the_first_two_levels(self):
        # (1/rho - 1/delta) / 2 pushes against PUSH_BUDGET, at each edge
        edge = 1.0 / (2.0 * graphtransform.PUSH_BUDGET + 1.0 / 0.05)
        SolverConfig(delta=0.05, rho0=1.002 * edge, rho_factor=0.9985).validate()
        with pytest.raises(DomainError, match="^rho0 = "):
            SolverConfig(delta=0.05, rho0=0.999 * edge).validate()
        with pytest.raises(DomainError, match="^rho_factor = 0.998 "):
            SolverConfig(delta=0.05, rho0=1.002 * edge, rho_factor=0.998).validate()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(grid_size=64.5), "grid_size = 64.5 must be an integer"),
            (dict(norm_order=8.5), "norm_order = 8.5 must be an integer"),
            (
                dict(rho_factor=5e-324),
                "rho_factor = 5e-324 is too small: "
                "the last level's rho0 * rho_factor^7 * GRID_SPAN = 0 is not a normal float",
            ),
        ],
    )
    def test_solve_rejects_the_field_before_any_push(self, overrides, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            solve_manifold(pert(c=0.1), SolverConfig(**overrides))


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: graded_grid(1.0, 64.5), "size = 64.5", id="graded_grid"),
        pytest.param(
            lambda: bound_certificate(seed_curve(0.05, 64), 8, 2.5), "m_max = 2.5",
            id="bound_certificate",
        ),
        pytest.param(
            lambda: invariance_residual(pert(), seed_curve(0.05, 64), samples=2.5),
            "samples = 2.5", id="invariance_residual",
        ),
        pytest.param(lambda: to_planar_series(pert(), 12.5), "order = 12.5", id="to_planar_series"),
        pytest.param(lambda: build_psi(pert(), 6.5), "order = 6.5", id="build_psi"),
        pytest.param(
            lambda: parameterize_manifold(pert(), 10.5), "order = 10.5", id="parameterize_manifold"
        ),
        pytest.param(
            lambda: graph_invariance_check(pert(), Series1.identity(), 2.5), "order = 2.5",
            id="graph_invariance_check",
        ),
        pytest.param(lambda: normalize_map(pert(), 8.5), "order = 8.5", id="normalize_map"),
        pytest.param(
            lambda: orbit_shadow_experiment(pert(), 0.01, 0.0, steps=2.5), "steps = 2.5",
            id="orbit_shadow_experiment",
        ),
        pytest.param(
            lambda: repulsion_check(canon(), seed_curve(0.05, 64), 0.02, 0.0, steps=2.5),
            "steps = 2.5", id="repulsion_check",
        ),
        pytest.param(
            lambda: rho_refinement(pert(), SolverConfig(), 2.5), "levels = 2.5", id="rho_refinement"
        ),
        pytest.param(
            lambda: solve_conjugacy(build_psi(pert(), 10), 8.5), "order = 8.5",
            id="solve_conjugacy",
        ),
        pytest.param(lambda: Series1.identity(6.5), "order = 6.5", id="Series1.identity"),
        pytest.param(lambda: Series2.x(12.5), "order = 12.5", id="Series2.x"),
        pytest.param(
            lambda: PlanarSeriesMap.identity(6.5), "order = 6.5", id="PlanarSeriesMap.identity"
        ),
        pytest.param(
            lambda: to_planar_series(pert(), 12).truncate(6.5), "order = 6.5",
            id="PlanarSeriesMap.truncate",
        ),
        pytest.param(lambda: Series1.zero(6.5), "order = 6.5", id="Series1.zero"),
        pytest.param(lambda: Series2.constant(1.0, 6.5), "order = 6.5", id="Series2.constant"),
        pytest.param(
            lambda: Series1.from_coeffs([1.0], 6.5), "order = 6.5", id="Series1.from_coeffs"
        ),
        pytest.param(lambda: seed_curve(0.05, 64.5), "grid_size = 64.5", id="seed_curve"),
    ],
)
def test_non_integer_orders_and_counts_are_typed_errors(call, message):
    # each names its argument and the value passed, before NumPy, `range`
    # or a slice can fail on it
    with pytest.raises(DomainError, match=f"^{re.escape(message)} must be an integer$"):
        call()


def _fast_cfg(**overrides) -> SolverConfig:
    base = dict(delta=0.05, rho0=0.05 / 8, grid_size=256, tol_converge=1e-9)
    base.update(overrides)
    return SolverConfig(**base)


class TestInvarianceResidual:
    @pytest.mark.parametrize("samples", [0, -1])
    def test_sample_count_below_one_is_rejected(self, samples):
        with pytest.raises(ValueError, match=f"samples must be at least 1, got {samples}"):
            invariance_residual(pert(c=0.1), seed_curve(0.05, 64), samples=samples)

    def test_flat_curve_under_canonical_map(self):
        curve, _, _ = solve_manifold(canon(), _fast_cfg())
        max_res, rep = invariance_residual(canon(), curve, samples=80)
        assert max_res <= 1e-14
        assert not rep.failures

    def test_seed_segment_defect_matches_construction(self):
        # the flat seed is not invariant: (x, 0) maps to (x + x^2, c x^3),
        # where the seed reads 0, so the defect at the sample x is c x^3
        m = pert(c=0.1)
        seed = seed_curve(0.05, 256)
        max_res, rep = invariance_residual(m, seed, samples=50)
        assert rep.xs.size == 50
        for x, res in zip(rep.xs, rep.residuals):
            assert res == pytest.approx(0.1 * x**3, rel=1e-15)
        assert max_res == float(rep.residuals.max()) > 0.0

    @pytest.mark.parametrize("idx, shift", [(5, 1.05), (9, 0.9)])
    def test_measures_every_sample_of_a_spoiled_curve(self, battery_curves, idx, shift):
        # F - (shift/mu) x pulls the image abscissa x + x^2 + mu x F + ...
        # below x at some samples, which the backward form had to skip; the
        # forward form measures each one, without a warning
        m, c = battery_curves[0][idx], battery_curves[1][idx]
        spoiled = Curve(c.xs, c.fs - (shift / m.mu) * c.xs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            max_res, rep = invariance_residual(m, spoiled, samples=150)
        xs, res = invariance_residual_forward_per_sample(m, spoiled, 150)
        assert rep.xs.tolist() == xs.tolist() and rep.failures == ()
        short = m.evaluator.values(xs, spoiled.eval(xs))[0] < xs
        assert 0 < np.count_nonzero(short) < xs.size
        assert np.all(np.abs(rep.residuals - res) <= 1e-12 * res)
        assert max_res == float(rep.residuals.max()) > 1e-8

    def test_matches_the_scalar_reading_on_the_battery(self, battery_curves):
        for i, (m, c) in enumerate(zip(*battery_curves)):
            max_res, rep = invariance_residual(m, c, samples=150)
            xs, res = invariance_residual_forward_per_sample(m, c, 150)
            assert rep.xs.tolist() == xs.tolist()
            assert rep.failures == ()
            assert np.max(np.abs(rep.residuals - res)) <= 1e-18
            assert max_res == float(rep.residuals.max())
            # the same identity read backward, at the images' abscissas,
            # by the kept root-finding oracle: 1.06 to 1.30 times apart here
            _, back, failures = invariance_residual_per_sample(m, c, 150)
            assert failures == ()
            if i == 0:  # CANON: the x-axis is exactly invariant
                assert max_res == float(back.max()) == 0.0
            else:
                assert 0.5 <= max_res / float(back.max()) <= 2.0, f"map {i}"

    @pytest.mark.parametrize(
        "m, slope, message",
        [
            # under mu = 1 the image abscissa of (x, s x) is x + (1 + s) x^2
            (canon(mu=1.0), 100.0, "x = 0.0205056 maps to X = 0.0629742"),
            (canon(mu=1.0), -3000.0, "x = 0.000371482 maps to X = -4.23766e-05"),
            # x y^2 - x y^3 overflows to inf - inf
            (
                MapSpec({(1, 0): 1.0, (2, 0): 1.0, (1, 2): 1.0, (1, 3): -1.0},
                        {(0, 1): -1.0, (1, 1): 1.0}),
                1e200, "x = 5e-08 maps to X = nan",
            ),
        ],
    )
    def test_an_image_outside_the_domain_names_its_sample(self, m, slope, message):
        xs = graded_grid(0.05, 64)
        c = Curve(xs, slope * xs)
        want = f"invariance sample {message}, outside the curve domain [0, x_max = 0.05]"
        with pytest.raises(DomainError, match=f"^{re.escape(want)}$"):
            invariance_residual(m, c, samples=64)


EPS = np.finfo(float).eps


class TestBrentq:
    """The array root finder against SciPy's scalar brentq, the oracle."""

    @staticmethod
    def _family(n: int):
        # monotone increasing on [a, b]: a signed power, an exponential or a
        # near-flat cubic around the root s, plus a small linear term
        rng = np.random.default_rng(11)
        kind = rng.integers(0, 3, n)
        s = rng.uniform(-1.0, 1.0, n)
        k = 10.0 ** rng.uniform(-3.0, 3.0, n)
        p = rng.integers(1, 8, n).astype(float)
        a = s - 10.0 ** rng.uniform(-6.0, 0.5, n)
        b = s + 10.0 ** rng.uniform(-6.0, 0.5, n)

        def f(x, idx):
            u = x - s[idx]
            return np.select(
                [kind[idx] == 0, kind[idx] == 1],
                [np.sign(u) * k[idx] * np.abs(u) ** p[idx], np.expm1(np.minimum(k[idx], 10.0) * u)],
                u**3 * k[idx],
            ) + 1e-3 * u

        return f, a, b

    @pytest.mark.parametrize("xtol, rtol", [(2e-12, 4 * EPS), (1e-300, 4 * EPS), (1e-6, 1e-3)])
    def test_matches_scipy_within_its_tolerance(self, xtol, rtol, monkeypatch):
        # same steps as SciPy's: each element is evaluated as often as
        # SciPy evaluates it alone, and only while it still iterates
        from scipy.optimize import brentq as scipy_brentq

        monkeypatch.setattr(graphtransform, "ROOT_XTOL", xtol)
        monkeypatch.setattr(graphtransform, "ROOT_RTOL", rtol)
        f, a, b = self._family(300)
        calls = np.zeros(a.size, dtype=int)

        def counted(x, idx):
            calls[idx] += 1
            return f(x, idx)

        roots = brentq(counted, a, b)
        for i, (lo, hi) in enumerate(zip(a, b)):
            one = np.array([i])
            ref, info = scipy_brentq(
                lambda x: f(np.array([x]), one)[0], lo, hi, xtol=xtol, rtol=rtol, full_output=True
            )
            assert abs(roots[i] - ref) <= xtol + rtol * abs(ref)
            assert calls[i] == info.function_calls

    def test_exact_root_at_either_end_is_returned_and_never_iterated(self):
        a = np.array([-1.0, 0.0, -2.0, 1.0])
        b = np.array([0.5, 3.0, 2.0, 4.0])
        root_at = np.array([0.5, 0.0, 1.0 / 3.0, 4.0])  # at b, at a, inside, at b
        seen = []

        def f(x, idx):
            seen.append(idx.copy())
            return x - root_at[idx]

        roots = brentq(f, a, b)
        assert roots[0] == 0.5 and roots[1] == 0.0 and roots[3] == 4.0
        assert abs(roots[2] - 1.0 / 3.0) <= 4 * EPS / 3.0
        assert all(list(idx) == [2] for idx in seen[2:])
        assert brentq(lambda x, idx: x - 2.0, 0.0, 2.0).tolist() == [2.0]

    def test_non_convergence_names_the_count(self, monkeypatch):
        monkeypatch.setattr(graphtransform, "ROOT_MAX_ITER", 3)
        f, a, b = self._family(40)
        with pytest.raises(ConvergenceError, match=r"^\d+ of 40 samples did not converge in 3 "):
            brentq(f, a, b)

    def test_bracket_without_sign_change_is_rejected(self):
        with pytest.raises(ValueError, match="same sign in 1 of 2 brackets"):
            brentq(lambda x, idx: x - 0.5, np.array([0.0, 0.6]), np.array([1.0, 1.0]))

    def test_bad_brackets_and_nan_are_domain_errors(self):
        with pytest.raises(DomainError, match=r"^f\(a\) and f\(b\) have the same sign in 1 of 1 "):
            brentq(lambda x, idx: x + 1.0, 0.0, 1.0)
        with pytest.raises(DomainError, match=r"^f is NaN at x = 1$"):
            brentq(lambda x, idx: np.where(x > 0.5, np.nan, x), 0.0, 1.0)


class TestTangencyFit:
    def test_flat_curve(self):
        a3, rep = tangency_fit(seed_curve(0.05, 256))
        assert a3 == 0.0
        assert rep.cubic_bounded and rep.vanishes_below_x23

    def test_quadratic_curve_is_flagged(self):
        g = graded_grid(0.05, 256)
        a3, rep = tangency_fit(Curve(g, g**2))
        assert not rep.cubic_bounded

    def test_too_few_small_samples_rejected(self):
        # only one node in the smallest decade [0.001, 0.01)
        xs = np.concatenate(([0.0, 0.001], np.linspace(0.02, 0.05, 8)))
        with pytest.raises(ValueError, match="samples"):
            tangency_fit(Curve(xs, np.zeros_like(xs)))


def test_rho_refinement_gaps_shrink():
    cfg = SolverConfig(norm_order=3, delta=0.05, rho0=0.05 / 4, grid_size=256)
    _, gaps = rho_refinement(pert(0.5, 0.0, 0.4), cfg, 4)
    assert len(gaps) == 3
    assert gaps[0] > gaps[1] > gaps[2]


def test_random_map_solve_is_well_behaved():
    rng = np.random.default_rng(99)
    m = random_form2_map(rng)
    cfg = _fast_cfg()
    curve, cert, diag = solve_manifold(m, cfg)
    assert diag.gaps[-1] <= cfg.tol_converge
    assert cert.min_dxdx >= 1.0 - 1e-12
    max_res, _ = invariance_residual(m, curve, samples=60)
    assert max_res <= 1e-8


def test_wide_family_solves_at_the_default_config():
    # 40 draws at rng seed 11 with cubic and quartic coefficients in
    # [-10, 10]: each passes normalize_to_order's cancellation check at the
    # solver's order 12 and converges
    rng = np.random.default_rng(11)
    for _ in range(40):
        _, _, diag = solve_manifold(random_form2_map(rng, 10.0), SolverConfig())
        assert diag.gaps[-1] <= diag.config.tol_converge


class TestSeedRule:
    def test_default_is_the_cap(self):
        assert SolverConfig().initial_rho() == 0.9 * 0.05

    def test_low_flattening_order_follows_the_error_model(self):
        rho = SolverConfig(norm_order=3).initial_rho()
        assert rho == pytest.approx((1e-12) ** 0.25, rel=1e-14)

    def test_replace_rederives(self):
        cfg = SolverConfig()
        assert replace(cfg, norm_order=3).initial_rho() == SolverConfig(norm_order=3).initial_rho()
        assert replace(cfg, delta=0.02).initial_rho() == 0.9 * 0.02
        tight = replace(cfg, tol_converge=1e-30).initial_rho()
        assert tight == pytest.approx((1e-33) ** (1.0 / 13.0), rel=1e-14)

    def test_explicit_rho0_wins(self):
        cfg = SolverConfig(rho0=0.002)
        assert cfg.initial_rho() == replace(cfg, norm_order=3).initial_rho() == 0.002

    def test_levels_record_the_rho_used(self):
        derived, _ = rho_refinement(pert(c=0.1), SolverConfig(grid_size=128), 2)
        assert [lv.rho for lv in derived] == [0.9 * 0.05, 0.9 * 0.05 / 3.0]
        explicit, _ = rho_refinement(pert(c=0.1), SolverConfig(rho0=0.025, grid_size=128), 1)
        assert explicit[0].rho == 0.025

    def test_validate_accepts_the_derived_seed(self):
        SolverConfig().validate()
        with pytest.raises(ValueError, match="^delta = -0.05 must be positive$"):
            SolverConfig(delta=-0.05).validate()

    def test_default_schedule_is_coarse_first(self, battery_solves):
        # coarse first: 0.9 delta confirms and 0.3 delta is returned
        for _, _, diag in battery_solves[1]:
            assert [lv.rho for lv in diag.levels] == [0.9 * 0.05, 0.9 * 0.05 / 3.0]
            assert sum(lv.nu_bar for lv in diag.levels) <= 30
            assert diag.seed_error_est == diag.config.seed_error_est(diag.gaps[-1])

    def test_normal_form_is_normalize_maps(self, battery_solves):
        # the push map is the square of a flattening at two more series
        # orders; cut back, that flattening is normalize_map's, bit for bit
        for m, (_, _, diag) in zip(*battery_solves):
            got, want = diag.normal_form, normalize_map(m, diag.config.norm_order)
            assert got.gammas == want.gammas and got.order == want.order
            pairs = ((got.normalized.fx, want.normalized.fx),
                     (got.normalized.fy, want.normalized.fy), (got.shift, want.shift))
            for a, b in pairs:
                assert (a.order, a.dtype) == (b.order, b.dtype)
                assert a._c.tobytes() == b._c.tobytes()

    def test_growth_law_holds_on_every_step_of_the_square(self, battery_solves):
        # a solve pushes F^2, which moves x_max by about 2 x_max^2 a step
        # where F moves it by x_max^2; criterion 08's x + x^2/2 holds on each
        for _, _, diag in battery_solves[1]:
            for lv in diag.levels:
                prev, nxt = lv.x_max_trace[:-1], lv.x_max_trace[1:]
                assert np.all(nxt - prev >= 1.5 * prev**2)
                assert lv.growth_margin_min >= 0.0

    def test_returned_nodes_match_the_determined_jet(self, battery_solves):
        # phi through order 14 from an order-15 solve, so every coefficient
        # is determined; the two solvers stay independent.  The worst node
        # error on the battery is 2.7e-19
        for m, (curve, _, _) in zip(*battery_solves):
            phi = parameterize_manifold(m, 15).phi.truncate(14)
            sel = (curve.xs > 0.0) & (curve.xs <= 0.025)
            assert np.max(np.abs(curve.fs[sel] - phi.eval(curve.xs[sel]))) <= 1e-18

    def test_seed_error_est_tracks_the_visible_seed_error(self):
        # at N = 3 the seed error stands far above the floor; level 3 stands
        # in for the limit when judging level 1's estimate
        cfg = SolverConfig(norm_order=3, rho0=0.025, rho_factor=1.0 / 3.0, grid_size=256)
        grid = _comparison_grid(cfg.delta)
        for m in acceptance_battery(1729)[1:]:
            levels, gaps = rho_refinement(m, cfg, 4)
            dist = np.max(np.abs(levels[1].curve.eval(grid) - levels[3].curve.eval(grid)))
            assert 1.0 / 2.5 <= cfg.seed_error_est(gaps[0]) / dist <= 2.5

    @pytest.mark.parametrize("idx", [2, 6, 8])
    def test_derived_seed_matches_the_short_seed(self, idx):
        m = acceptance_battery(1729)[idx]
        grid = _comparison_grid(0.05)
        derived, _, _ = solve_manifold(m, SolverConfig())
        short, _, _ = solve_manifold(m, SolverConfig(rho0=0.05 / 50.0))
        assert np.max(np.abs(derived.eval(grid) - short.eval(grid))) <= 1e-13
