import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invcurve.normalform as normalform
import invcurve.series as series_mod
from invcurve import (
    DomainError,
    MapSpec,
    Series1,
    Series2,
    SeriesError,
    PlanarSeriesMap,
    canon,
    compose_maps,
    normalize_to_order,
    pert,
    pullback_curve,
    to_planar_series,
)
from invcurve.graphtransform import Curve, graded_grid
from invcurve.normalform import normalize_map
from oracles import acceptance_battery, manifold_jet, normalize_shear_steps


def series(m, order=12):
    return to_planar_series(m, order)


def _shear(gammas, order: int) -> PlanarSeriesMap:
    """(x, y) -> (x, y + sum gamma_n x^n), n = 3, 4, ..."""
    terms = {(0, 1): 1.0, **{(n, 0): g for n, g in enumerate(gammas, start=3)}}
    return PlanarSeriesMap(Series2.x(order), Series2.from_terms(terms, order), order)


def _identity_gap(m: PlanarSeriesMap, nf) -> float:
    """Largest coefficient of S m - normalized S, with S the shear of the gammas."""
    shear = _shear(nf.gammas, m.order)
    return _map_diff(compose_maps(shear, m), compose_maps(nf.normalized, shear))


class TestShiftSolve:
    def test_pert_cubic_gamma(self):
        nf = normalize_to_order(series(pert(c=0.1)), 8)
        assert nf.gammas[0] == -0.05

    def test_canonical_map_untouched(self):
        m = series(canon())
        nf = normalize_to_order(m, 3)
        assert nf.gammas == (0.0,)
        assert nf.normalized is m
        assert nf.normalized.fy.coeffs == m.fy.coeffs

    def test_target_coefficient_removed(self):
        nf = normalize_to_order(series(pert(c=0.37)), 3)
        assert nf.normalized.fy.coeff(3, 0) == 0.0

    def test_conjugacy_identity_per_order(self):
        m = series(pert(1.2, -0.4, 0.3))
        for order in range(3, 11):
            assert _identity_gap(m, normalize_to_order(m, order)) <= 1e-10

    def test_longdouble_map_stays_longdouble(self):
        # the shift and the conjugation run at the map's precision: a cubic
        # coefficient c = 0.1 + 1/30 in longdouble gives gamma_3 = -c/2 there
        m = series(pert(c=0.1))
        x = Series2.x(12).astype(np.longdouble)
        fy = m.fy.astype(np.longdouble) + (x * x * x).scale(np.longdouble(1) / 30)
        wide_map = PlanarSeriesMap(m.fx.astype(np.longdouble), fy, 12)
        wide = normalize_to_order(wide_map, 8)
        for part in (wide.normalized.fx, wide.normalized.fy, wide.shift):
            assert part.dtype == np.longdouble
        assert wide.gammas[0] == -(np.longdouble(0.1) + np.longdouble(1) / 30) / 2
        if np.finfo(np.longdouble).eps < np.finfo(float).eps:
            # S m = normalized S to within 2 longdouble ulps of the largest
            # coefficient; conjugating with the shift rounded to binary64
            # leaves about 4
            sy = Series2.y(12).astype(np.longdouble) + wide.shift.compose(x)
            shear = PlanarSeriesMap(x, sy, 12)
            left, right = compose_maps(shear, wide_map), compose_maps(wide.normalized, shear)
            gap = np.max(np.abs(left.fy._c - right.fy._c))
            assert gap <= 2 * np.finfo(np.longdouble).eps * np.max(np.abs(left.fy._c))
        narrow = normalize_to_order(m, 8)
        for part in (narrow.normalized.fx, narrow.normalized.fy, narrow.shift):
            assert part.dtype == np.float64

    def test_order_cap(self):
        with pytest.raises(SeriesError, match="series order 4 too small; need at least 7"):
            normalize_to_order(series(pert(c=0.1), order=4), 5)

    def test_order_floor(self):
        with pytest.raises(SeriesError, match="at least 3, got 2"):
            normalize_to_order(series(pert(c=0.1)), 2)

    def test_cancellation_check_names_its_values(self, monkeypatch):
        # with no tolerance, the rounding left in the conjugated x^k
        # coefficients trips the check
        monkeypatch.setattr(normalform, "_KILL_TOL", 0.0)
        with pytest.raises(SeriesError, match=r"x\^\d+ coefficient of Y: residual \S+ exceeds 0"):
            normalize_to_order(series(pert(1.4, 0.3, -0.6)), 8)

    def test_gammas_are_the_exact_jet(self):
        # -s is the N-jet of the invariant graph: each gamma within 4 ulp of
        # the exact rational jet, correctly rounded
        for idx, m in enumerate(acceptance_battery()):
            jet = manifold_jet(m, 8)
            gammas = normalize_map(m, 8).gammas
            worst = max(_ulps(-g, a) for g, a in zip(gammas, jet))
            assert worst <= 4, f"map {idx}: gamma {worst} ulp off the exact jet"

    def test_matches_the_shear_step_loop(self):
        # the one conjugation against the loop of one-term shears, each
        # normalized coefficient within 32 ulp of the map's largest
        for idx, m in enumerate(acceptance_battery()):
            sm = series(m)
            loop, _ = normalize_shear_steps(sm, 8)
            nf = normalize_to_order(sm, 8)
            for new, ref in ((nf.normalized.fx, loop.fx), (nf.normalized.fy, loop.fy)):
                scale = max(abs(c) for c in ref.coeffs.values())
                gap = np.max(np.abs(new._c - ref._c))
                assert gap <= 32 * np.finfo(float).eps * scale, f"map {idx}: {gap:.3e}"

    def test_no_map_composition(self, monkeypatch):
        # the shift is solved on univariate series and the map conjugated
        # once, with no composition of planar maps
        calls = []
        compose = series_mod.compose_maps

        def counted(*args):
            calls.append(1)
            return compose(*args)

        monkeypatch.setattr(series_mod, "compose_maps", counted)
        monkeypatch.setattr(normalform, "compose_maps", counted, raising=False)
        for m in acceptance_battery()[:4]:
            normalize_map(m, 8)
        assert calls == []


def _ulps(a: float, b: float) -> int:
    """Distance between two doubles in units in the last place."""
    ia, ib = (int(np.float64(v).view(np.int64)) for v in (a, b))
    ia, ib = (v if v >= 0 else -(1 << 63) - v for v in (ia, ib))
    return abs(ia - ib)


def _map_diff(a: PlanarSeriesMap, b: PlanarSeriesMap) -> float:
    worst = 0.0
    for lhs, rhs in ((a.fx, b.fx), (a.fy, b.fy)):
        keys = set(lhs.coeffs) | set(rhs.coeffs)
        for k in keys:
            worst = max(worst, abs(lhs.coeff(*k) - rhs.coeff(*k)))
    return worst


@st.composite
def admissible_maps(draw):
    """lambda in (0, 4], mu in [-2, 2], cubic and quartic tails in [-3, 3]."""
    lam = draw(st.floats(0.0, 4.0, exclude_min=True))
    mu = draw(st.floats(-2.0, 2.0))
    x_terms = {(1, 0): 1.0, (2, 0): 1.0, (1, 1): mu}
    y_terms = {(0, 1): -1.0, (1, 1): lam}
    for table in (x_terms, y_terms):
        for deg in (3, 4):
            for i in range(deg + 1):
                table[(deg - i, i)] = draw(st.floats(-3.0, 3.0))
    return MapSpec(x_terms, y_terms)


@settings(max_examples=150, deadline=None)
@given(admissible_maps())
def test_normal_form_across_the_admissible_family(m):
    sm = series(m)
    nf = normalize_to_order(sm, 8)
    assert all(nf.normalized.fy.coeff(k, 0) == 0.0 for k in range(3, 9))
    scale = max(abs(c) for f in (sm.fx, sm.fy, nf.normalized.fx, nf.normalized.fy)
                for c in f.coeffs.values())
    assert _identity_gap(sm, nf) <= 1e-10 * max(1.0, scale)


class TestNormalizeToOrder:
    def test_canonical_all_gammas_zero(self):
        nf = normalize_to_order(series(canon()), 10)
        assert nf.gammas == (0.0,) * 8
        assert nf.normalized.fy.coeffs == series(canon()).fy.coeffs

    def test_pert_first_gamma(self):
        nf = normalize_to_order(series(pert(c=0.1)), 3)
        assert nf.gammas == (-0.05,)

    def test_pure_x_coefficients_vanish(self):
        nf = normalize_to_order(series(pert(c=0.1)), 6)
        for k in range(3, 7):
            assert nf.normalized.fy.coeff(k, 0) == 0.0

    def test_x_component_skeleton_retained(self):
        nf = normalize_to_order(series(pert(0.7, 0.9, 0.5)), 8)
        fx = nf.normalized.fx
        assert fx.coeff(0, 0) == 0.0
        assert fx.coeff(1, 0) == 1.0
        assert fx.coeff(2, 0) == 1.0

    def test_gamma_linear_in_perturbation(self):
        g1 = normalize_to_order(series(pert(c=0.1)), 3).gammas[0]
        g2 = normalize_to_order(series(pert(c=0.2)), 3).gammas[0]
        assert g2 == 2.0 * g1

    def test_composite_conjugacy_identity(self):
        m = series(pert(1.4, 0.3, -0.6))
        assert _identity_gap(m, normalize_to_order(m, 8)) <= 1e-10

    def test_headroom_enforced(self):
        with pytest.raises(ValueError, match="too small"):
            normalize_to_order(series(pert(c=0.1), order=8), 8)


class TestPullback:
    def test_zero_shift_is_identity(self):
        f = Series1.from_coeffs([0, 0, 0, 0.5], 6)
        assert pullback_curve(f, Series1.zero(6)).coeffs == f.coeffs

    def test_flat_curve_with_cubic_shift(self):
        shift = Series1.from_coeffs([0, 0, 0, -0.05], 6)
        out = pullback_curve(Series1.zero(6), shift)
        assert out.coeffs == (0.0, 0.0, 0.0, 0.05, 0.0, 0.0, 0.0)

    def test_involution(self):
        shift = Series1.from_coeffs([0, 0, 0, 0.2, -0.1], 8)
        f = Series1.from_coeffs([0, 0, 0, 1.0, 2.0, 3.0], 8)
        back = pullback_curve(pullback_curve(f, shift), shift.scale(-1.0))
        assert back.coeffs == f.coeffs

    def test_curve_variant(self):
        xs = graded_grid(0.05, 64)
        curve = Curve(xs, np.zeros_like(xs))
        shift = Series1.from_coeffs([0, 0, 0, -0.05], 6)
        out = pullback_curve(curve, shift)
        np.testing.assert_allclose(out.fs, 0.05 * xs**3, rtol=0, atol=1e-18)

    def test_other_kinds_are_domain_errors(self):
        with pytest.raises(DomainError, match="f_norm must be a Series1 or a Curve, got list"):
            pullback_curve([0.0, 0.1], Series1.zero(6))
