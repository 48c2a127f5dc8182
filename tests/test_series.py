import copy
import functools
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import invcurve
from invcurve import (
    InvcurveError,
    PlanarSeriesMap,
    Series1,
    Series2,
    SeriesError,
    build_psi,
    canon,
    compose_maps,
    invert_map_series,
    pert,
    reverse_series,
    solve_conjugacy,
    to_planar_series,
)
from invcurve import series
from invcurve.parameterization import square_map
from invcurve.series import substitute
from oracles import (
    acceptance_battery,
    dict_invert,
    dict_mul,
    dict_subst,
    invert_map_series_sweep,
    reverse_series_full,
    reversion_exact,
)

CANON_SERIES = to_planar_series(canon(1.0, 0.0), 8)


def series2(terms, order=8):
    return Series2.from_terms(terms, order)


class TestSeries2Arithmetic:
    def test_monomial_product(self):
        assert (Series2.x(8) * Series2.y(8)).coeffs == {(1, 1): 1.0}

    def test_additive_identity(self):
        a = series2({(2, 1): 0.5, (0, 3): -2.0})
        assert (a + Series2.zero(8)).coeffs == a.coeffs

    def test_hand_expanded_product(self):
        # (1 - x)(1 - x - x^2) = 1 - 2x + x^3 once truncated at order 3
        p = series2({(0, 0): 1.0, (1, 0): -1.0}, order=3)
        q = series2({(0, 0): 1.0, (1, 0): -1.0, (2, 0): -1.0}, order=3)
        assert (p * q).coeffs == {(0, 0): 1.0, (1, 0): -2.0, (3, 0): 1.0}

    def test_truncation_drops_high_degrees(self):
        a = series2({(4, 0): 1.0}, order=8)
        b = series2({(0, 5): 1.0}, order=8)
        assert (a * b).coeffs == {}

    def test_no_zero_coefficients_stored(self):
        a = series2({(1, 0): 1.0})
        b = series2({(1, 0): -1.0, (2, 2): 3.0})
        assert (a + b).coeffs == {(2, 2): 3.0}

    def test_order_validation(self):
        with pytest.raises(ValueError):
            Series2({(5, 5): 1.0}, 8)

    def test_pickle_and_deepcopy_round_trip(self):
        third = Series1.identity(6).astype(np.longdouble).scale(np.longdouble(1) / 3)
        for s in (
            series2({(2, 1): 0.5, (0, 3): -2.0}),
            Series2.x(6).astype(np.longdouble),
            Series1.from_coeffs([0.0, 1.0, -0.5], 4),
            third,
        ):
            for back in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
                assert back == s and back.dtype == s.dtype


class TestComposeMaps:
    def test_canonical_square_x_component(self):
        sq = compose_maps(CANON_SERIES, CANON_SERIES)
        assert sq.fx.coeffs == {(1, 0): 1.0, (2, 0): 2.0, (3, 0): 2.0, (4, 0): 1.0}

    def test_canonical_square_y_component(self):
        # y (1 - 2x + x^3); the xy coefficient is -2 lambda with lambda = 1
        sq = compose_maps(CANON_SERIES, CANON_SERIES)
        assert sq.fy.coeffs == {(0, 1): 1.0, (1, 1): -2.0, (3, 1): 1.0}

    def test_identity_composition(self):
        ident = PlanarSeriesMap.identity(8)
        out = compose_maps(ident, CANON_SERIES)
        assert out.fx.coeffs == CANON_SERIES.fx.coeffs
        assert out.fy.coeffs == CANON_SERIES.fy.coeffs

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError, match="order mismatch"):
            compose_maps(CANON_SERIES, PlanarSeriesMap.identity(6))


class TestInvertMapSeries:
    def test_canonical_inverse_x_coeffs(self):
        inv = invert_map_series(CANON_SERIES)
        got = [inv.fx.coeff(k, 0) for k in range(6)]
        np.testing.assert_allclose(got, [0, 1, -1, 2, -5, 14], atol=1e-12)

    def test_back_composition_is_identity(self):
        inv = invert_map_series(CANON_SERIES)
        comp = compose_maps(CANON_SERIES, inv)
        resid = dict(comp.fx.coeffs)
        resid[(1, 0)] = resid.get((1, 0), 0.0) - 1.0
        assert max(abs(v) for v in resid.values()) <= 1e-12
        resid_y = dict(comp.fy.coeffs)
        resid_y[(0, 1)] = resid_y.get((0, 1), 0.0) - 1.0
        assert max(abs(v) for v in resid_y.values()) <= 1e-12

    def test_inverted_square_structure(self):
        psi = invert_map_series(compose_maps(CANON_SERIES, CANON_SERIES))
        np.testing.assert_allclose(
            [psi.fx.coeff(k, 0) for k in range(4)], [0, 1, -2, 6], atol=1e-12
        )
        assert abs(psi.fy.coeff(1, 1) - 2.0) <= 1e-12

    def test_singular_linear_part_rejected(self):
        bad = Series2.from_terms({(1, 0): 1.0, (2, 0): 1.0}, 6)
        with pytest.raises(ValueError):
            PlanarSeriesMap(bad, Series2.from_terms({(2, 0): 1.0}, 6), 6)


class TestReverseSeries:
    def test_identity(self):
        t = Series1.identity(6)
        assert reverse_series(t).coeffs == t.coeffs

    def test_hand_example(self):
        s = Series1.from_coeffs([0, 1, 1], 4)
        assert reverse_series(s).coeffs == (0.0, 1.0, -1.0, 2.0, -5.0)

    def test_linear_scaling(self):
        s = Series1.from_coeffs([0, 2], 4)
        np.testing.assert_allclose(reverse_series(s).coeffs, [0, 0.5, 0, 0, 0])

    def test_back_composition(self):
        s = Series1.from_coeffs([0, 1, 1], 6)
        resid = s.compose(reverse_series(s)) - Series1.identity(6)
        assert max(abs(c) for c in resid.coeffs) <= 1e-12

    def test_rejects_constant_term(self):
        with pytest.raises(ValueError):
            reverse_series(Series1.from_coeffs([1, 1], 4))

    def test_battery_back_composition_at_rounding_level(self):
        # coefficient k of s(g) - t against coefficient k of |s|(|g|), the
        # sum of the magnitudes the rounding acts on, in eps of s's dtype
        for s in _battery_k1() + _battery_k1(np.longdouble):
            eps = np.finfo(s.dtype).eps
            g = reverse_series(s)
            resid = s.compose(g) - Series1.identity(s.order)
            scale = _abs_series(s).compose(_abs_series(g))
            for k, (r, b) in enumerate(zip(resid.coeffs, scale.coeffs)):
                assert abs(r) <= 4.0 * eps * b, f"order {s.order}, t^{k}: {r} vs {b}"

    def test_battery_matches_full_order_sweeps(self):
        for s in _battery_k1():
            np.testing.assert_allclose(
                reverse_series(s).coeffs, reverse_series_full(s).coeffs, rtol=1e-13, atol=0.0
            )

    def test_rejects_zero_linear_coefficient(self):
        with pytest.raises(ValueError):
            reverse_series(Series1.from_coeffs([0, 0, 1], 4))

    def test_battery_within_two_eps_of_the_exact_reversion(self):
        # the error of g_k against the exact reversion, over its conditioning
        # scale sum_j |a_j| [|g|^j]_k / |a_1|, the magnitudes the rounding
        # acts on, in eps of s's dtype; measured worst 0.16 eps at binary64
        # and 0.87 eps at longdouble (x87), and 0.65 eps with the kernel at
        # binary64 where longdouble is binary64
        for s in _battery_k1() + _battery_k1(np.longdouble):
            eps = np.finfo(s.dtype).eps
            g = reverse_series(s)
            exact = reversion_exact([_exact(c) for c in s.coeffs])
            scale = _abs_series(s).compose(_abs_series(g)).coeffs
            for k in range(s.order + 1):
                err = abs(_exact(g.coeff(k)) - exact[k])
                assert err <= _exact(2 * eps * scale[k] / abs(s.coeff(1))), (s.dtype, s.order, k)

    def test_battery_reversion_commutes_with_truncation(self):
        # each coefficient is set once, from the lower ones alone
        for s in _battery_k1():
            g = reverse_series(s)
            for k in range(1, s.order + 1):
                assert reverse_series(s.truncate(k)) == g.truncate(k), (s.order, k)


@functools.lru_cache(maxsize=None)
def _battery_k1(dtype=np.float64) -> tuple[Series1, ...]:
    """K1 of the conjugacy solve at orders 10 and 12 on the 12 battery maps,
    rounded to `dtype` (the solve keeps K1 at the extended dtype)."""
    return tuple(
        solve_conjugacy(build_psi(m, n), n).K1.astype(dtype)
        for m in acceptance_battery(1729)
        for n in (10, 12)
    )


def _exact(x) -> Fraction:
    """The exact value of a binary64 or longdouble number."""
    return Fraction(*x.as_integer_ratio())


def _abs_series(s: Series1) -> Series1:
    return Series1([abs(c) for c in s.coeffs])


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

coeff_values = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
exponents = st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(
    lambda ij: ij[0] + ij[1] <= 8
)
sparse_series = st.dictionaries(exponents, coeff_values, max_size=8).map(
    lambda d: Series2.from_terms(d, 8)
)


@settings(max_examples=60, deadline=None)
@given(sparse_series, sparse_series, sparse_series)
def test_multiplication_associative_and_distributive(a, b, c):
    left = (a * b) * c
    right = a * (b * c)
    keys = set(left.coeffs) | set(right.coeffs)
    assert all(abs(left.coeff(*k) - right.coeff(*k)) <= 1e-12 for k in keys)
    dist_l = a * (b + c)
    dist_r = a * b + a * c
    keys = set(dist_l.coeffs) | set(dist_r.coeffs)
    assert all(abs(dist_l.coeff(*k) - dist_r.coeff(*k)) <= 1e-12 for k in keys)


small_coeffs = st.floats(min_value=-0.5, max_value=0.5, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(-0.3, 0.3),
    st.floats(-0.3, 0.3),
    st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(
            lambda ij: 2 <= ij[0] + ij[1] <= 6
        ),
        small_coeffs,
        max_size=6,
    ),
)
def test_inverse_round_trip(b, c, higher):
    order = 8
    fx = Series2.from_terms({(1, 0): 1.0, (0, 1): b, **higher}, order)
    fy = Series2.from_terms({(1, 0): c, (0, 1): -1.0}, order)
    m = PlanarSeriesMap(fx, fy, order)
    comp = compose_maps(m, invert_map_series(m))
    resid = dict(comp.fx.coeffs)
    resid[(1, 0)] = resid.get((1, 0), 0.0) - 1.0
    resid_y = dict(comp.fy.coeffs)
    resid_y[(0, 1)] = resid_y.get((0, 1), 0.0) - 1.0
    worst = max(
        max((abs(v) for v in resid.values()), default=0.0),
        max((abs(v) for v in resid_y.values()), default=0.0),
    )
    assert worst <= 1e-10


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.1, 10.0).flatmap(lambda a1: st.sampled_from([a1, -a1])),
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=12),
    st.data(),
)
def test_reversion_commutes_with_truncation(a1, tail, data):
    s = Series1([0.0, a1, *tail])
    k = data.draw(st.integers(1, s.order))
    assert reverse_series(s.truncate(k)) == reverse_series(s).truncate(k)


@settings(max_examples=60, deadline=None)
@given(st.lists(small_coeffs, min_size=2, max_size=8))
def test_reversion_involution(tail):
    coeffs = [0.0, 1.0] + tail
    s = Series1.from_coeffs(coeffs, len(coeffs) - 1)
    twice = reverse_series(reverse_series(s))
    assert max(abs(a - b) for a, b in zip(twice.coeffs, s.coeffs)) <= 1e-10


# ---------------------------------------------------------------------------
# the dense core against the dict reference, at binary64 and extended precision
# ---------------------------------------------------------------------------

DTYPES = [np.float64, np.longdouble]
REF_ORDER = 6
unit_coeffs = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
ref_keys = st.tuples(st.integers(0, REF_ORDER), st.integers(0, REF_ORDER)).filter(
    lambda ij: ij[0] + ij[1] <= REF_ORDER
)
ref_tables = st.dictionaries(ref_keys, unit_coeffs, max_size=8)
ref_substitutes = st.dictionaries(
    ref_keys.filter(lambda ij: ij != (0, 0)), unit_coeffs, max_size=6
)
ref_lists = st.lists(unit_coeffs, min_size=1, max_size=REF_ORDER + 1)
ref_tails = st.lists(unit_coeffs, min_size=REF_ORDER, max_size=REF_ORDER)
# a substitute's valuation v: its terms below degree v are zeroed, so that
# substitution skips the powers that start beyond the order (v = REF_ORDER +
# 1 leaves it zero everywhere)
valuations = st.integers(1, REF_ORDER + 1)


def _on_x(coeffs) -> dict:
    """Univariate coefficients c_0, c_1, ... as a table on the keys (k, 0)."""
    return {(k, 0): c for k, c in enumerate(coeffs)}


def _series1(coeffs, dtype) -> Series1:
    return Series1.from_coeffs(coeffs, REF_ORDER).astype(dtype)


def _from_degree(v: int, table: dict) -> dict:
    """The terms of a table of degree at least v."""
    return {k: c for k, c in table.items() if sum(k) >= v}


def _table(s) -> dict:
    return s.coeffs if isinstance(s, Series2) else _on_x(s.coeffs)


def _typed(table: dict, dtype) -> dict:
    return {k: dtype(v) for k, v in table.items()}


def _absolute(table: dict, dtype) -> dict:
    return {k: abs(dtype(v)) for k, v in table.items()}


def _assert_close(got: dict, want: dict, bound: dict, dtype) -> None:
    # rounding error of any summation order is at most a small multiple of
    # eps times the sum of the absolute contributions to a coefficient, plus
    # an underflow floor
    eps, tiny = np.finfo(dtype).eps, np.finfo(dtype).tiny
    for key in set(got) | set(want):
        err = abs(got.get(key, 0) - want.get(key, 0))
        assert err <= 200 * eps * bound.get(key, 0) + tiny, (key, err)


@pytest.mark.parametrize("dtype", DTYPES)
@settings(max_examples=40, deadline=None)
@given(ref_tables, ref_tables, ref_lists, ref_lists)
def test_dense_product_matches_dict_reference(dtype, a, b, u, v):
    for got, left, right in (
        (Series2(a, REF_ORDER, dtype) * Series2(b, REF_ORDER, dtype), a, b),
        (_series1(u, dtype) * _series1(v, dtype), _on_x(u), _on_x(v)),
    ):
        assert got.dtype == dtype
        want = dict_mul(_typed(left, dtype), _typed(right, dtype), REF_ORDER)
        bound = dict_mul(_absolute(left, dtype), _absolute(right, dtype), REF_ORDER)
        _assert_close(_table(got), want, bound, dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@settings(max_examples=30, deadline=None)
@given(ref_lists, ref_tails, ref_substitutes, st.booleans())
def test_univariate_composition_matches_dict_reference(dtype, f, g, h, wide_outer):
    # the composition runs at the wider dtype of its two operands, into a
    # univariate or a bivariate inner series, and is of the inner's kind
    narrow = np.float64
    outer = _series1(f, dtype if wide_outer else narrow)
    inner_dtype = narrow if wide_outer else dtype
    for inner, table in (
        (_series1((0.0, *g), inner_dtype), _on_x((0.0, *g))),
        (Series2(h, REF_ORDER, inner_dtype), h),
    ):
        got = outer.compose(inner)
        assert type(got) is type(inner) and got.dtype == dtype
        want = dict_subst(_typed(_on_x(f), dtype), _typed(table, dtype), {}, REF_ORDER)
        bound = dict_subst(_absolute(_on_x(f), dtype), _absolute(table, dtype), {}, REF_ORDER)
        _assert_close(_table(got), want, bound, dtype)


# two series of their own orders, extents and dtypes; longdouble ones carry
# bits beyond binary64
cube_parts = st.tuples(
    st.dictionaries(st.tuples(st.integers(0, 9), st.integers(0, 9)), unit_coeffs, max_size=10),
    st.integers(0, 9),
    st.sampled_from(DTYPES),
).map(lambda p: Series2.from_terms(p[0], p[1]).astype(p[2]).scale(1 / p[2](3)))


@settings(max_examples=80, deadline=None)
@given(cube_parts, cube_parts, st.integers(0, 9))
def test_coef_cube_is_the_term_by_term_layout(a, b, n):
    n = min(n, a.order, b.order)
    cube = series._coef_cube([a, b], n)
    terms = [s.truncate(n).coeffs for s in (a, b)]
    keys = [key for table in terms for key in table]
    top_i = max((i for i, _ in keys), default=0)
    top_j = max((j for _, j in keys), default=0)
    want = np.zeros((2, top_j + 1, top_i + 1), dtype=np.result_type(a.dtype, b.dtype))
    for comp, table in zip(want, terms):
        for (i, j), c in table.items():
            comp[j, i] = c
    assert cube.dtype == want.dtype
    assert cube.shape == want.shape
    assert np.array_equal(cube, want)


@pytest.mark.parametrize("dtype", DTYPES)
@settings(max_examples=30, deadline=None)
@given(ref_tables, ref_substitutes, ref_substitutes, valuations, valuations)
# y^3 with val(sy) = 2 reaches the order exactly (j v = n); x with val(sx) = 7
# and y with val(sy) = 7 start one beyond it (i v = j v = n + 1)
@example({(0, 3): 0.5, (2, 1): -1.0}, {(1, 0): 1.0}, {(0, 2): 0.25, (1, 1): 1.0}, 1, 2)
@example({(1, 0): 1.0, (0, 1): -0.5, (1, 1): 2.0}, {(2, 0): 1.0}, {(1, 0): 1.0}, 7, 7)
def test_horner_substitution_matches_dict_reference(dtype, f, sx, sy, vx, vy):
    sx, sy = _from_degree(vx, sx), _from_degree(vy, sy)
    (got,) = substitute(
        [Series2(f, REF_ORDER, dtype)], Series2(sx, REF_ORDER, dtype), Series2(sy, REF_ORDER, dtype)
    )
    assert got.dtype == dtype
    want = dict_subst(_typed(f, dtype), _typed(sx, dtype), _typed(sy, dtype), REF_ORDER)
    bound = dict_subst(
        _absolute(f, dtype), _absolute(sx, dtype), _absolute(sy, dtype), REF_ORDER
    )
    _assert_close(got.coeffs, want, bound, dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@settings(max_examples=30, deadline=None)
@given(ref_tables, ref_tails, ref_tails, valuations, valuations)
# as above: j v = n for y^2 with val(sy) = 3 and i v = n for x^3 with
# val(sx) = 2; x and y with valuation 7 start one beyond the order
@example({(3, 0): 0.5, (0, 2): -1.0}, [0.5] * REF_ORDER, [0.25] * REF_ORDER, 2, 3)
@example({(1, 0): 1.0, (0, 1): -0.5}, [0.5] * REF_ORDER, [0.25] * REF_ORDER, 7, 7)
def test_series_evaluation_matches_dict_reference(dtype, f, sx, sy, vx, vy):
    sx, sy = (
        [c if k >= v else 0.0 for k, c in enumerate((0.0, *s))] for s, v in ((sx, vx), (sy, vy))
    )
    (got,) = substitute(
        [Series2(f, REF_ORDER, dtype)], Series1(sx).astype(dtype), Series1(sy).astype(dtype)
    )
    assert got.dtype == dtype
    want = dict_subst(
        _typed(f, dtype), _typed(_on_x(sx), dtype), _typed(_on_x(sy), dtype), REF_ORDER
    )
    bound = dict_subst(
        _absolute(f, dtype), _absolute(_on_x(sx), dtype), _absolute(_on_x(sy), dtype), REF_ORDER
    )
    _assert_close(_table(got), want, bound, dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@settings(max_examples=15, deadline=None)
@given(
    st.floats(-0.3, 0.3),
    st.floats(-0.3, 0.3),
    st.dictionaries(
        ref_keys.filter(lambda ij: 2 <= ij[0] + ij[1] <= 5),
        unit_coeffs.map(lambda v: v / 2),
        max_size=6,
    ),
)
def test_inversion_matches_dict_reference(dtype, b, c, higher):
    order = 5
    fx = {(1, 0): 1.0, (0, 1): b, **higher}
    fy = {(1, 0): c, (0, 1): -1.0}
    m = PlanarSeriesMap(Series2(fx, order, dtype), Series2(fy, order, dtype), order)
    inv = invert_map_series(m)
    assert inv.fx.dtype == dtype
    want_x, want_y = dict_invert(_typed(fx, dtype), _typed(fy, dtype), order)
    eps = np.finfo(dtype).eps
    scale = 1.0 + max(abs(v) for v in (*want_x.values(), *want_y.values()))
    for got, want in ((inv.fx.coeffs, want_x), (inv.fy.coeffs, want_y)):
        for key in set(got) | set(want):
            assert abs(got.get(key, 0) - want.get(key, 0)) <= 1e4 * eps * scale


# ---------------------------------------------------------------------------
# the online inversion against its full-order sweep
# ---------------------------------------------------------------------------


def _assert_same_inverse(got: PlanarSeriesMap, want: PlanarSeriesMap, ulps: int) -> None:
    # by value, so the signs of zeros may differ; binary64 may move by the
    # summation order of the coefficient-row matmul, which BLAS chooses by shape
    assert got.order == want.order and got.fx.dtype == want.fx.dtype
    top = max(np.abs(want.fx._c).max(), np.abs(want.fy._c).max())
    for g, w in ((got.fx, want.fx), (got.fy, want.fy)):
        if ulps == 0:
            assert np.array_equal(g._c, w._c), (g.coeffs, w.coeffs)
        else:
            assert np.abs(g._c - w._c).max() <= ulps * np.spacing(top), (g.coeffs, w.coeffs)


def test_battery_squared_maps_invert_as_the_full_order_sweep():
    for m in acceptance_battery(1729):
        for n in (10, 12):
            sq = square_map(m, n)
            _assert_same_inverse(invert_map_series(sq), invert_map_series_sweep(sq), 0)


@st.composite
def planar_maps(draw):
    """(order, linear part, higher terms of fx, higher terms of fy): the two
    components draw their own terms, so their x and y degrees differ."""
    order = draw(st.integers(1, 10))
    a, d = (draw(st.sampled_from([-1, 1])) * draw(st.floats(0.5, 2.0)) for _ in range(2))
    b, c = draw(st.floats(-0.3, 0.3)), draw(st.floats(-0.3, 0.3))
    keys = st.tuples(st.integers(0, order), st.integers(0, order)).filter(
        lambda ij: 2 <= ij[0] + ij[1] <= order
    )
    higher = st.dictionaries(keys, unit_coeffs, max_size=8) if order > 1 else st.just({})
    return order, (a, b, c, d), draw(higher), draw(higher)


@pytest.mark.parametrize("dtype", DTYPES)
@settings(max_examples=60, deadline=None)
@given(planar_maps())
@example((6, (1.0, 0.25, -0.25, -1.0), {}, {}))  # linear
@example((8, (1.0, 0.0, 0.0, -1.0), {(0, 2): 0.5, (0, 5): -1.0}, {(0, 3): 1.0, (0, 8): 0.25}))
@example((9, (2.0, 0.1, 0.2, 0.5), {(7, 0): 1.0, (2, 1): -0.5}, {(0, 6): 0.75, (1, 1): 1.0}))
def test_inversion_matches_the_full_order_sweep(dtype, drawn):
    order, (a, b, c, d), hx, hy = drawn
    fx = Series2({(1, 0): a, (0, 1): b, **hx}, order, dtype)
    fy = Series2({(1, 0): c, (0, 1): d, **hy}, order, dtype)
    m = PlanarSeriesMap(fx, fy, order)
    ulps = 0 if dtype is np.longdouble else 2
    _assert_same_inverse(invert_map_series(m), invert_map_series_sweep(m), ulps)


def test_inversion_sweeps_compute_only_their_new_degree(monkeypatch):
    # no substitution and no operator product: every product is one raw
    # kernel call for the degree-k slots of sweep k, at most 3 per sweep
    sq = square_map(pert(), 12)
    want = invert_map_series(sq)
    lows = []
    mul2 = series._mul2

    def counted_mul2(a, b, n, low=0):
        assert low == n
        lows.append(low)
        return mul2(a, b, n, low)

    def forbidden(*args):
        raise AssertionError("the inversion substituted or used the product operator")

    monkeypatch.setattr(series, "_mul2", counted_mul2)
    monkeypatch.setattr(series, "substitute", forbidden)
    monkeypatch.setattr(Series2, "__mul__", forbidden)
    assert invert_map_series(sq) == want
    assert 0 < len(lows) <= 3 * (sq.order - 1)
    assert max(lows.count(k) for k in set(lows)) <= 3


def test_tables_are_built_lazily_per_order():
    probe = (
        "from invcurve import series\n"
        "before = series._tables.cache_info().currsize\n"
        "series.Series2.x(7) * series.Series2.y(7)\n"
        "print(before, series._tables.cache_info().currsize)\n"
    )
    src = str(Path(invcurve.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    assert done.stdout.split() == ["0", "1"]


# ---------------------------------------------------------------------------
# typed errors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "build, quantity",
    [
        (
            lambda: Series2({(5, 5): 1.0}, 8),
            r"key \(5, 5\) is negative or exceeds truncation order 8",
        ),
        (lambda: Series2({(-1, 2): 1.0}, 8), r"key \(-1, 2\) is negative"),
        (lambda: Series2({(1.5, 0): 1.0}, 3), r"key \(1.5, 0\) has a non-integer exponent"),
        (
            # a NaN determinant is not == 0, so the finiteness check must catch it
            lambda: PlanarSeriesMap(
                Series2({(1, 0): float("nan"), (0, 1): 1.0}, 4), Series2.y(4), 4
            ),
            r"fx coefficient of term \(1, 0\) is not finite: nan",
        ),
        (
            lambda: PlanarSeriesMap(
                Series2.x(4), Series2({(0, 1): 1.0, (1, 2): float("inf")}, 4), 4
            ),
            r"fy coefficient of term \(1, 2\) is not finite: inf",
        ),
        (
            lambda: PlanarSeriesMap(Series2.x(4), Series2.from_terms({(2, 0): 1.0}, 4), 4),
            r"singular \(determinant 0",
        ),
        (
            lambda: substitute(
                [Series2.x(4)], Series2.x(4) + Series2.constant(0.5, 4), Series2.y(4)
            ),
            r"zero constant terms, got x -> 0.5",
        ),
        (
            lambda: substitute(
                [Series2({(1, 0): 1.0, (0, 1): 2.0, (1, 1): 3.0}, 4)],
                Series1.identity(4),
                Series2.y(4),
            ),
            r"two univariate or two bivariate substitutes, got x -> Series1 and y -> Series2",
        ),
        (
            lambda: substitute([Series2.x(4)], Series2.x(4), Series1.identity(4)),
            r"got x -> Series2 and y -> Series1",
        ),
        (
            lambda: substitute([], Series1.identity(4), Series1.identity(4)),
            r"at least one series to substitute into",
        ),
        (lambda: reverse_series(Series1.from_coeffs([0.25, 1.0], 4)), r"s\(0\) = 0.25"),
        (
            lambda: reverse_series(Series1.from_coeffs([0.0, 0.0, 1.0], 4)),
            r"linear coefficient",
        ),
        (
            lambda: compose_maps(CANON_SERIES, PlanarSeriesMap.identity(6)),
            r"order mismatch: 8 vs 6",
        ),
    ],
)
def test_series_errors_are_typed_and_name_the_quantity(build, quantity):
    with pytest.raises(InvcurveError, match=quantity) as info:
        build()
    assert isinstance(info.value, SeriesError) and isinstance(info.value, ValueError)
