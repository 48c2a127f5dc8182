import numpy as np
import pytest

from invcurve import (
    ConjugacyError,
    Series1,
    build_psi,
    canon,
    graph_invariance_check,
    parameterize_manifold,
    pert,
    repulsion_check,
    solve_conjugacy,
    square_map,
)
from invcurve import PlanarSeriesMap, Series2, parameterization
from invcurve.graphtransform import Curve, graded_grid
from oracles import acceptance_battery, manifold_jet, pert_jet_closed_form, random_form2_map


class TestSquareMap:
    def test_canonical_square(self):
        sq = square_map(canon(), 8)
        assert sq.fx.coeffs == {(1, 0): 1.0, (2, 0): 2.0, (3, 0): 2.0, (4, 0): 1.0}
        assert sq.fy.coeff(1, 1) == -2.0

    def test_no_pure_cubic_in_second_component(self):
        rng = np.random.default_rng(8)
        maps = [canon(), pert(c=0.1), pert(2.0, -1.0, 0.4)]
        maps += [random_form2_map(rng) for _ in range(5)]
        for m in maps:
            assert abs(square_map(m, 10).fy.coeff(3, 0)) <= 1e-12


class TestBuildPsi:
    def test_structure_coefficients(self):
        for lam in (0.5, 1.0, 2.0):
            psi = build_psi(canon(lam, 0.3), 8)
            assert abs(psi.fx.coeff(2, 0) + 2.0) <= 1e-12
            assert abs(psi.fy.coeff(1, 1) - 2.0 * lam) <= 1e-12

    def test_cubic_coefficient_for_unit_lambda(self):
        psi = build_psi(canon(), 8)
        assert psi.fx.coeff(3, 0) == pytest.approx(6.0, abs=1e-12)

    def test_order_floor(self):
        with pytest.raises(ValueError):
            build_psi(canon(), 3)


class TestSolveConjugacy:
    def test_canonical_graph_is_zero(self):
        conj = parameterize_manifold(canon(), 10)
        assert all(c == 0.0 for c in conj.K2.coeffs)
        assert all(c == 0.0 for c in conj.phi.coeffs)
        assert conj.residual_max <= 1e-10
        assert conj.d == pytest.approx(6.0, abs=1e-9)

    def test_model_polynomial_shape(self):
        conj = parameterize_manifold(pert(c=0.1), 10)
        assert conj.model.coeff(2) == -2.0
        assert conj.model.coeff(1) == 1.0
        assert conj.d == pytest.approx(6.0, abs=1e-9)

    def test_perturbed_graph_leading_coefficients(self):
        for c in (0.02, 0.1, 0.4):
            conj = parameterize_manifold(pert(c=c), 10)
            a3, a4, a5 = pert_jet_closed_form(1.0, c)
            assert conj.phi.coeff(3) == pytest.approx(a3, abs=1e-12)
            assert conj.phi.coeff(4) == pytest.approx(a4, abs=1e-11)
            assert conj.phi.coeff(5) == pytest.approx(a5, abs=1e-11)

    def test_graph_matches_independent_jet(self):
        rng = np.random.default_rng(31)
        for _ in range(3):
            m = random_form2_map(rng)
            conj = parameterize_manifold(m, 10)
            jet = manifold_jet(m, 6)
            for k, val in zip(range(3, 7), jet):
                assert conj.phi.coeff(k) == pytest.approx(val, abs=1e-9)

    def test_reparameterization_leaves_graph_alone(self):
        m = pert(1.3, 0.4, 0.25)
        psi = build_psi(m, 10)
        pinned = solve_conjugacy(psi, 10)
        shifted = solve_conjugacy(psi, 10, t2_coefficient=0.1)
        assert shifted.K1.coeff(2) == pytest.approx(0.1)
        assert any(
            abs(a - b) > 1e-6 for a, b in zip(pinned.K1.coeffs, shifted.K1.coeffs)
        )
        for k in range(10):  # K's top order inherits the section choice; skip it
            assert abs(pinned.phi.coeff(k) - shifted.phi.coeff(k)) <= 1e-9

    def test_sign_condition_rejection(self):
        from invcurve import PlanarSeriesMap, Series2

        bad = PlanarSeriesMap(
            Series2.from_terms({(1, 0): 1.0, (2, 0): 2.0}, 6),
            Series2.from_terms({(0, 1): 1.0, (1, 1): 2.0}, 6),
            6,
        )
        with pytest.raises(ConjugacyError, match="sign condition"):
            solve_conjugacy(bad, 6)

    def test_order_exceeding_psi_rejected(self):
        psi = build_psi(canon(), 6)
        with pytest.raises(ValueError, match="order"):
            solve_conjugacy(psi, 8)


def _finite_difference_stage_matrix(psi, a, b, d, n):
    """Columns: the change of the order-n residual per unit step of each unknown."""
    ext = psi.truncate(n).astype(np.longdouble)

    def order_n(a_, b_, d_):
        r1, r2 = parameterization._conjugacy_residual(ext, a_, b_, d_)
        return np.array([r1[n], r2[n]])

    base = order_n(a, b, d)
    if n == 3:
        return (order_n(a, b, d + 1.0) - base).astype(float)[:, None]
    steps = []
    for coeffs in (a, b):
        bumped = list(coeffs)
        bumped[n - 1] += 1.0
        steps.append(order_n(bumped, b, d) if coeffs is a else order_n(a, bumped, d))
    return np.column_stack([(s - base).astype(float) for s in steps])


class TestStageSystems:
    @pytest.mark.parametrize("order", [10, 12])
    def test_closed_form_matrix_equals_finite_differences(self, order):
        for m in acceptance_battery():
            psi = build_psi(m, order)
            conj = solve_conjugacy(psi, order)
            a, b = list(conj.K1.coeffs), list(conj.K2.coeffs)
            for n in range(3, order + 1):
                closed = parameterization._stage_matrix(psi, n)
                fd = _finite_difference_stage_matrix(psi, a, b, conj.d, n)
                assert np.max(np.abs(closed - fd)) <= 1e-12 * np.max(np.abs(fd))

    def test_closed_form_keeps_the_x2_term_of_psi2(self):
        # the battery's Psi2 has no x^2 term; give it one so its column entry counts
        psi = build_psi(pert(1.3, 0.4, 0.25), 8)
        psi = PlanarSeriesMap(psi.fx, psi.fy + Series2({(2, 0): 0.7}, 8), 8)
        a = [0.0, 1.0, 0.1, 0.3, -0.2, 0.5, 0.0, 0.0, 0.0]
        b = [0.0, 0.0, 0.0, 0.2, 0.1, -0.4, 0.0, 0.0, 0.0]
        for n in range(4, 9):
            closed = parameterization._stage_matrix(psi, n)
            fd = _finite_difference_stage_matrix(psi, a, b, 6.0, n)
            assert closed[1, 0] == pytest.approx(1.4)
            assert np.max(np.abs(closed - fd)) <= 1e-12 * np.max(np.abs(fd))

    @pytest.mark.parametrize("order", [6, 10])
    def test_one_residual_per_stage_sweep(self, order, monkeypatch):
        calls = []
        residual = parameterization._conjugacy_residual

        def counted(*args):
            calls.append(args[0].order)
            return residual(*args)

        monkeypatch.setattr(parameterization, "_conjugacy_residual", counted)
        solve_conjugacy(build_psi(pert(c=0.1), order), order)
        # two sweeps for each order 3..order, then the final full-order residual
        expected = [n for n in range(3, order + 1) for _ in range(2)] + [order]
        assert calls == expected


class TestGraphInvariance:
    def test_canonical_graph(self):
        rep = graph_invariance_check(canon(), Series1.zero(10), 6)
        assert rep.max_coeff_diff <= 1e-14
        assert rep.subcubic_max <= 1e-14

    def test_perturbed_graph(self):
        conj = parameterize_manifold(pert(c=0.1), 10)
        rep = graph_invariance_check(pert(c=0.1), conj.phi, 6)
        assert rep.max_coeff_diff <= 1e-8
        assert rep.subcubic_max <= 1e-10

    def test_wrong_graph_is_detected(self):
        conj = parameterize_manifold(pert(c=0.1), 10)
        spoiled = list(conj.phi.coeffs)
        spoiled[4] += 1.0
        rep = graph_invariance_check(pert(c=0.1), Series1(tuple(spoiled)), 6)
        assert rep.coeff_diffs[4] >= 0.5


class TestRepulsion:
    def test_zero_offset_stays_on_curve(self):
        conj = parameterize_manifold(pert(c=0.1), 10)
        trace = repulsion_check(pert(c=0.1), conj.phi, 0.02, 0.0, 10)
        assert np.max(np.abs(trace.deviations)) <= 1e-12

    def test_canonical_first_step_ratio(self):
        trace = repulsion_check(canon(), Series1.zero(10), 0.1, 1e-6, 5, delta=0.2)
        devs = np.abs(trace.deviations)
        assert devs[1] / devs[0] == pytest.approx(1.2, rel=2e-2)

    def test_perturbed_growth_and_backward_drift(self):
        conj = parameterize_manifold(pert(c=0.1), 10)
        trace = repulsion_check(pert(c=0.1), conj.phi, 0.02, 1e-9, 20)
        devs = np.abs(trace.deviations)
        assert np.all(np.diff(devs) >= 0.0)
        assert np.all(trace.xs[1:] < trace.xs[:-1] - 0.5 * trace.xs[:-1] ** 2 + 1e-12)

    def test_curve_manifold_accepted(self):
        g = graded_grid(0.04, 128)
        flat = Curve(g, np.zeros_like(g))
        trace = repulsion_check(canon(), flat, 0.01, 1e-7, 5)
        devs = np.abs(trace.deviations)
        assert devs[1] / devs[0] == pytest.approx(1.02, rel=2e-2)

    def test_preconditions(self):
        conj = parameterize_manifold(pert(c=0.1), 10)
        with pytest.raises(ValueError, match="x0"):
            repulsion_check(pert(c=0.1), conj.phi, 0.05, 1e-9, 5)
        with pytest.raises(ValueError, match="offset"):
            repulsion_check(pert(c=0.1), conj.phi, 0.02, 1e-3, 5)
