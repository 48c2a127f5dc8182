import copy
import functools
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
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
    reverse_series,
    solve_conjugacy,
    to_planar_series,
)
from oracles import (
    acceptance_battery,
    dict_invert,
    dict_mul,
    dict_subst,
    reverse_series_full,
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
        for s in (series2({(2, 1): 0.5, (0, 3): -2.0}), Series2.x(6).astype(np.longdouble)):
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
        # sum of the magnitudes the rounding acts on
        eps = np.finfo(float).eps
        for s in _battery_k1():
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


@functools.lru_cache(maxsize=None)
def _battery_k1() -> tuple[Series1, ...]:
    """K1 of the conjugacy solve at orders 10 and 12 on the 12 battery maps."""
    return tuple(
        solve_conjugacy(build_psi(m, n), n).K1
        for m in acceptance_battery(1729)
        for n in (10, 12)
    )


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
@given(ref_tables, ref_tables)
def test_dense_product_matches_dict_reference(dtype, a, b):
    got = Series2(a, REF_ORDER, dtype) * Series2(b, REF_ORDER, dtype)
    assert got.dtype == dtype
    want = dict_mul(_typed(a, dtype), _typed(b, dtype), REF_ORDER)
    bound = dict_mul(_absolute(a, dtype), _absolute(b, dtype), REF_ORDER)
    _assert_close(got.coeffs, want, bound, dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@settings(max_examples=30, deadline=None)
@given(ref_tables, ref_substitutes, ref_substitutes)
def test_horner_substitution_matches_dict_reference(dtype, f, sx, sy):
    got = Series2(f, REF_ORDER, dtype).subst(
        Series2(sx, REF_ORDER, dtype), Series2(sy, REF_ORDER, dtype)
    )
    assert got.dtype == dtype
    want = dict_subst(_typed(f, dtype), _typed(sx, dtype), _typed(sy, dtype), REF_ORDER)
    bound = dict_subst(
        _absolute(f, dtype), _absolute(sx, dtype), _absolute(sy, dtype), REF_ORDER
    )
    _assert_close(got.coeffs, want, bound, dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@settings(max_examples=30, deadline=None)
@given(
    ref_tables,
    st.lists(unit_coeffs, min_size=REF_ORDER, max_size=REF_ORDER),
    st.lists(unit_coeffs, min_size=REF_ORDER, max_size=REF_ORDER),
)
def test_series_evaluation_matches_dict_reference(dtype, f, sx, sy):
    got = Series2(f, REF_ORDER, dtype).eval_series(
        Series1((0.0, *sx)), Series1((0.0, *sy))
    )
    as_x = lambda cs: {(k, 0): c for k, c in enumerate(cs, start=1)}  # noqa: E731
    want = dict_subst(
        _typed(f, dtype), _typed(as_x(sx), dtype), _typed(as_x(sy), dtype), REF_ORDER
    )
    bound = dict_subst(
        _absolute(f, dtype), _absolute(as_x(sx), dtype), _absolute(as_x(sy), dtype), REF_ORDER
    )
    got_table = {(k, 0): c for k, c in enumerate(got.coeffs)}
    # the result is binary64 whatever the working precision
    _assert_close(got_table, want, bound, np.float64)


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
        (
            lambda: PlanarSeriesMap(Series2.x(4), Series2.from_terms({(2, 0): 1.0}, 4), 4),
            r"singular \(determinant 0",
        ),
        (
            lambda: Series2.x(4).subst(Series2.x(4) + Series2.constant(0.5, 4), Series2.y(4)),
            r"zero constant terms, got x -> 0.5",
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
