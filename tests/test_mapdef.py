import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invcurve import (
    ConvergenceError,
    DomainError,
    MapFormatError,
    MapSpec,
    MapValidationError,
    Point,
    canon,
    eval_map,
    format_map_spec,
    invert_point,
    parameterize_manifold,
    parse_map_spec,
    pert,
    to_planar_series,
)
from invcurve.cli import resolve_map
from invcurve.series import MapEvaluator
from oracles import (
    acceptance_battery,
    flatten_map,
    invert_point_linalg,
    invert_point_two_pass,
    jacobian_fsum,
)

# admissible maps: the quadratic skeleton with lambda > 0 and any mu, plus
# terms of degree 3 to 6 whose coefficients range over every finite binary64
# magnitude, subnormals and the largest included
finite = st.floats(allow_nan=False, allow_infinity=False)
high_terms = st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda ij: 3 <= sum(ij) <= 6),
    finite,
    max_size=8,
)
admissible_maps = st.builds(
    lambda lam, mu, x_high, y_high: MapSpec(
        {**x_high, (1, 0): 1.0, (2, 0): 1.0, (1, 1): mu},
        {**y_high, (0, 1): -1.0, (1, 1): lam},
    ),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    finite,
    high_terms,
    high_terms,
)

CANON_TEXT = """
# canonical map, lambda = 1, mu = 0
X 1 0 1
X 2 0 1
Y 0 1 -1
Y 1 1 1
"""


class TestParsing:
    def test_minimal_legal_map(self):
        m = parse_map_spec(CANON_TEXT)
        assert m.lam == 1.0 and m.mu == 0.0
        assert m.x_terms == {(1, 0): 1.0, (2, 0): 1.0}

    def test_quadratic_y_term_rejected(self):
        with pytest.raises(MapValidationError, match="quadratic part of Y"):
            parse_map_spec(CANON_TEXT + "Y 2 0 0.3\n")

    def test_cubic_terms_are_free(self):
        m = parse_map_spec(CANON_TEXT + "Y 3 0 0.1\n")
        assert m.y_terms[(3, 0)] == 0.1

    def test_malformed_line_reports_number(self):
        with pytest.raises(MapFormatError, match="line 2"):
            parse_map_spec("X 1 0 1\nX 2 zero 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(MapFormatError, match="duplicate"):
            parse_map_spec(CANON_TEXT + "X 2 0 1\n")

    def test_nonpositive_lambda_rejected(self):
        bad = CANON_TEXT.replace("Y 1 1 1", "Y 1 1 -2")
        with pytest.raises(MapValidationError, match="lambda"):
            parse_map_spec(bad)

    def test_missing_skeleton_entry_rejected(self):
        with pytest.raises(MapValidationError):
            parse_map_spec("X 1 0 1\nY 0 1 -1\nY 1 1 1\n")  # no x^2 term

    @example(pert(1.25, -0.5, 0.07))
    @example(pert(5e-324, -1.7976931348623157e308, 1e-310))
    @settings(max_examples=200, deadline=None)
    @given(admissible_maps)
    def test_format_round_trip(self, m):
        again = parse_map_spec(format_map_spec(m))
        assert again == m  # zero coefficients are dropped, so == is exact


class TestEvaluation:
    def test_axis_invariance(self):
        img = eval_map(canon(), Point(0.1, 0.0))
        assert img.x == pytest.approx(0.11, rel=1e-15) and img.y == 0.0

    def test_pure_reflection_on_y_axis(self):
        assert eval_map(canon(), Point(0.0, 0.2)) == Point(0.0, -0.2)

    def test_perturbed_map_lifts_the_axis(self):
        img = eval_map(pert(c=0.1), Point(0.1, 0.0))
        assert img.x == pytest.approx(0.11, abs=1e-15)
        assert img.y == pytest.approx(0.0001, abs=1e-18)

    def test_jacobian_matches_finite_differences(self):
        m = pert(1.3, -0.7, 0.4)
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = Point(*rng.uniform(-0.2, 0.2, size=2))
            jac = np.array([row[1:] for row in m.evaluator.image_jacobian(p.x, p.y)])
            h = 1e-6
            fd = np.empty((2, 2))
            for col, (dx, dy) in enumerate([(h, 0.0), (0.0, h)]):
                plus = eval_map(m, Point(p.x + dx, p.y + dy))
                minus = eval_map(m, Point(p.x - dx, p.y - dy))
                fd[0, col] = (plus.x - minus.x) / (2 * h)
                fd[1, col] = (plus.y - minus.y) / (2 * h)
            np.testing.assert_allclose(jac, fd, rtol=1e-6, atol=1e-9)

    def test_jacobian_matches_termwise_derivatives(self):
        # each entry within 8 eps of the magnitude of its derivative terms,
        # at points outside the working window so every power counts
        eps = np.finfo(float).eps
        rng = np.random.default_rng(14)
        for raw in acceptance_battery(1729):
            for m in (raw, flatten_map(raw, 8)):
                for x, y in rng.uniform(-1.2, 1.2, (40, 2)):
                    rows = m.evaluator.image_jacobian(x, y)
                    # x and y are NumPy scalars; every output is a Python float
                    assert all(type(v) is float for row in rows for v in row)
                    # the slope pass's image has the value pass's bits
                    assert [row[0] for row in rows] == list(m.evaluator.values(x, y))
                    jac = [row[1:] for row in rows]
                    pair = m.evaluator.pair_image(x, y, 1e-9 * x, 1e-9 * y)
                    assert all(type(v) is float for v in pair)
                    for terms, row in zip(m.sorted_terms(), jac):
                        for got, (want, scale) in zip(row, jacobian_fsum(terms, x, y)):
                            assert abs(got - want) <= 8.0 * eps * scale, (x, y, got, want)

    def test_series_conversion_matches_eval_exactly(self):
        m = pert(0.8, 0.6, -0.3)
        sm = to_planar_series(m, 8)
        rng = np.random.default_rng(11)
        for _ in range(25):
            x, y = rng.uniform(-0.2, 0.2, size=2)
            img = eval_map(m, Point(x, y))
            sx, sy = sm.eval(x, y)
            assert img.x == sx and img.y == sy


class TestInvertPoint:
    def test_axis_preimage(self):
        p = invert_point(canon(), Point(0.11, 0.0))
        assert p.x == pytest.approx(0.1, abs=1e-12)
        assert p.y == pytest.approx(0.0, abs=1e-14)

    def test_fixed_point(self):
        p = invert_point(canon(), Point(0.0, 0.0))
        assert p == Point(0.0, 0.0)

    def test_off_axis_preimage(self):
        p = invert_point(canon(), Point(0.11, -0.18))
        assert p.x == pytest.approx(0.1, abs=1e-12)
        assert p.y == pytest.approx(0.2, abs=1e-12)

    def test_round_trip_random_points(self):
        m = pert(1.5, 0.4, 0.2)
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = Point(*rng.uniform(-0.2, 0.2, size=2))
            img = eval_map(m, p)
            back = invert_point(m, img)
            assert abs(back.x - p.x) <= 1e-10 and abs(back.y - p.y) <= 1e-10


    def test_singular_jacobian_is_a_typed_error(self):
        # the start point (0.25, 0) has dY/dy = -1 + 4 x = 0
        m = resolve_map("builtin:CANON(lambda=4)")
        with pytest.raises(ConvergenceError) as err:
            invert_point(m, Point(0.5, 0.0))
        assert str(err.value) == (
            "point inversion hit a singular Jacobian at (0.25, -0.0) (determinant 0.0)"
        )

    @pytest.mark.parametrize(
        "det, message",
        [
            (1e-310, r"non-finite candidate \(inf, "),  # the step overflows
            (1e-170, "whose image is not finite"),  # the step's image overflows
        ],
    )
    def test_non_finite_candidate_is_a_typed_error(self, monkeypatch, det, message):
        m = canon()
        real = m.evaluator.image_jacobian

        def spoiled(x, y):  # the true image, with the Jacobian diag(det, 1)
            (gx, _, _), (gy, _, _) = real(x, y)
            return (gx, det, 0.0), (gy, 0.0, 1.0)

        monkeypatch.setattr(m.evaluator, "image_jacobian", spoiled)
        with pytest.raises(ConvergenceError, match=message):
            invert_point(m, Point(0.5, 0.0))

    @pytest.mark.parametrize("x", [1e200, -1e200])
    def test_a_target_whose_start_overflows_is_a_domain_error(self, x):
        message = f"target x = {x:g} is too large: its power 2 overflows"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            invert_point(pert(), Point(x, 0.0))

    @staticmethod
    def _repulsion_targets(monkeypatch):
        """The targets repulsion_check inverts on each battery map (x0 = 0.02,
        offset 1e-9, 20 steps of two inversions), with a function that runs
        an inversion of one and counts the evaluator's value and slope passes
        it makes; the next target is invert_point's preimage."""
        passes = {"_value_sums": 0, "_slope_sums": 0}
        for name in passes:
            def counted(self, *args, _name=name, _real=getattr(MapEvaluator, name)):
                passes[_name] += 1
                return _real(self, *args)

            monkeypatch.setattr(MapEvaluator, name, counted)

        def run(invert, m, target):
            passes.update(dict.fromkeys(passes, 0))
            return invert(m, target), passes["_value_sums"], passes["_slope_sums"]

        for m in acceptance_battery(1729):
            phi = parameterize_manifold(m, 10).phi
            target = Point(0.02, phi.eval(0.02) + 1e-9)
            for _ in range(40):
                yield m, target, run
                target = invert_point(m, target)

    def test_preimages_match_the_linalg_oracle_on_repulsion_inputs(self, monkeypatch):
        # one slope pass per iterate, where the oracle makes a value pass and
        # a slope pass, and the same number of iterates
        for m, target, run in self._repulsion_targets(monkeypatch):
            got, values, slopes = run(invert_point, m, target)
            want, oracle_values, oracle_slopes = run(invert_point_linalg, m, target)
            assert abs(got.x - want.x) <= 1e-12 and abs(got.y - want.y) <= 1e-12
            assert values == 0 and slopes == oracle_values == oracle_slopes

    def test_preimages_equal_the_two_pass_loop_on_repulsion_inputs(self, monkeypatch):
        # the same iterates as the loop that took each image from eval_map
        # and each Jacobian from a second pass: the same bits, one pass per
        # iterate against one value pass per iterate and one slope pass per
        # step
        for m, target, run in self._repulsion_targets(monkeypatch):
            got, values, slopes = run(invert_point, m, target)
            want, oracle_values, oracle_slopes = run(invert_point_two_pass, m, target)
            assert (got.x.hex(), got.y.hex()) == (want.x.hex(), want.y.hex())
            assert values == 0 and slopes == oracle_values > oracle_slopes


def test_degree_reported():
    assert canon().degree == 2
    assert pert().degree == 3


def test_direct_mapspec_validation():
    with pytest.raises(MapValidationError):
        MapSpec({(1, 0): 1.0, (2, 0): 1.0, (0, 2): 0.5}, {(0, 1): -1.0, (1, 1): 1.0})
