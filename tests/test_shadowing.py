import math
import re

import numpy as np
import pytest

from invcurve import (
    DomainError,
    Point,
    Series1,
    ShadowPair,
    canon,
    orbit_shadow_experiment,
    pert,
    repulsion_check,
    shadow_metric,
    shadow_step_check,
    to_planar_series,
)
from oracles import (
    acceptance_battery,
    eval_fsum,
    flatten_map,
    offset_image_termwise,
    sample_shadow_pair,
)
from invcurve.series import MapEvaluator
from invcurve.shadowing import _metric


class TestMetric:
    def test_identical_points(self):
        assert shadow_metric(ShadowPair(Point(0.1, 0.0), Point(0.1, 0.0))) == 0.0

    def test_abscissa_gap(self):
        pair = ShadowPair(Point(0.1, 0.0), Point(0.1 + 1e-9, 0.0))
        assert shadow_metric(pair) == pytest.approx(0.1, rel=1e-6)

    def test_ordinate_gap(self):
        pair = ShadowPair(Point(0.1, 0.0), Point(0.1, 1e-12))
        assert shadow_metric(pair) == pytest.approx(0.1, rel=1e-12)

    def test_positive_base_required(self):
        with pytest.raises(ValueError):
            ShadowPair(Point(0.0, 0.0), Point(0.1, 0.0))

    def test_ordinate_homogeneity(self):
        base = Point(0.03, 1e-14)
        one = shadow_metric(ShadowPair(base, Point(0.03, 1e-14 + 1e-20)))
        three = shadow_metric(ShadowPair(base, Point(0.03, 1e-14 + 3e-20)))
        assert three == pytest.approx(3.0 * one, rel=1e-9)


class TestStepCheck:
    def test_canonical_example(self):
        pair = ShadowPair(Point(0.1, 0.0), Point(0.100000001, 0.0))
        before, after, ok = shadow_step_check(canon(), pair, 8, delta=0.1)
        assert before == pytest.approx(0.1, rel=1e-6)
        assert after == pytest.approx(0.056, rel=2e-2)
        assert ok

    def test_identical_points_trivial(self):
        pair = ShadowPair(Point(0.01, 0.0), Point(0.01, 0.0))
        before, after, ok = shadow_step_check(canon(), pair, 8)
        assert before == after == 0.0 and ok

    def test_metric_hypothesis_gate(self):
        pair = ShadowPair(Point(0.01, 0.0), Point(0.011, 0.0))
        with pytest.raises(ValueError, match="metric <= 1"):
            shadow_step_check(canon(), pair, 8)

    def test_range_hypothesis_gate(self):
        pair = ShadowPair(Point(0.2, 0.0), Point(0.2, 0.0))
        with pytest.raises(ValueError, match="delta"):
            shadow_step_check(canon(), pair, 8, delta=0.05)

    def test_ordinate_hypothesis_gate(self):
        pair = ShadowPair(Point(0.01, 1e-3), Point(0.01, 1e-3))
        with pytest.raises(ValueError, match=r"\|y\|"):
            shadow_step_check(canon(), pair, 8)

    def test_nonexpansion_on_flattened_maps(self):
        rng = np.random.default_rng(21)
        for raw in (canon(), pert(c=0.1)):
            fm = flatten_map(raw, 8)
            for _ in range(400):
                pair = sample_shadow_pair(rng, 0.05, 8)
                before, after, ok = shadow_step_check(fm, pair, 8)
                assert ok, f"expanded: {before} -> {after} at {pair}"

    def test_offsets_match_termwise_power_differences(self):
        eps = np.finfo(float).eps
        rng = np.random.default_rng(1730)
        for m in acceptance_battery(1729):
            fm = flatten_map(m, 8)
            for _ in range(50):
                pair = sample_shadow_pair(rng, 0.05, 8)
                (x, y), (dx, dy) = (pair.p.x, pair.p.y), pair.offset
                out = fm.evaluator.pair_image(x, y, dx, dy)
                for terms, image, got in zip(fm.sorted_terms(), out[:2], out[2:]):
                    want = offset_image_termwise(terms, x, y, dx, dy)
                    assert abs(got - want) <= 8.0 * eps * abs(want), (pair, got, want)
                    want, scale = eval_fsum(terms, x, y)
                    assert abs(image - want) <= 32.0 * eps * scale, (pair, image, want)

    def test_ordinate_only_offsets_take_the_value_pass(self, monkeypatch):
        # a pair with dx = 0 (or -0.0) skips the x-divided sums, which would
        # only be multiplied by dx: its figures equal the slope pass's as
        # floats (an offset may come out as -0.0 where the slope pass gives
        # 0.0) and meet the termwise bound, on raw and flattened maps
        eps = np.finfo(float).eps
        slope_passes = []
        slope_sums = MapEvaluator._slope_sums

        def spy(self, *args):
            slope_passes.append(args)
            return slope_sums(self, *args)

        monkeypatch.setattr(MapEvaluator, "_slope_sums", spy)
        rng = np.random.default_rng(29)
        for raw in acceptance_battery(1729):
            for m in (raw, flatten_map(raw, 8)):
                ev = m.evaluator
                draws = [sample_shadow_pair(rng, 0.05, 8) for _ in range(30)]
                cases = [(p.p.x, p.p.y, *p.offset) for p in draws if p.offset[0] == 0.0]
                assert len(cases) >= 10
                x, y, _, dy = cases[0]
                cases.append((x, y, -0.0, dy))
                for x, y, dx, dy in cases:
                    got = ev.pair_image(x, y, dx, dy)
                    assert not slope_passes
                    (big_x, ax, bx), (big_y, ay, by) = slope_sums(ev, x, y, x + dx, y + dy)
                    assert got == (big_x, big_y, dx * ax + dy * bx, dx * ay + dy * by)
                    for terms, offset in zip(m.sorted_terms(), got[2:]):
                        want = offset_image_termwise(terms, x, y, dx, dy)
                        assert abs(offset - want) <= 8.0 * eps * abs(want), (x, y, dy)

    def test_one_step_keeps_at_most_four_rows(self, monkeypatch):
        # |y| <= x^8 on the working interval, so a step of a battery map's
        # order-12 flattening needs at most 4 of its 13 y-power rows (CANON
        # and PERT flatten to 2 rows, which are all kept)
        kept = []
        rows = MapEvaluator._point_rows

        def spy(self, *args):
            kept.append((rows(self, *args), self._ny + 1))
            return kept[-1][0]

        monkeypatch.setattr(MapEvaluator, "_point_rows", spy)
        rng = np.random.default_rng(4)
        for m in acceptance_battery(1729):
            fm = flatten_map(m, 8)
            for _ in range(50):
                shadow_step_check(fm, sample_shadow_pair(rng, 0.05, 8), 8)
        assert [every for _, every in kept] == [2] * 100 + [13] * 500
        assert max(r for r, _ in kept) <= 4

    def test_map_terms_are_read_once_per_map(self, monkeypatch):
        # the map's evaluator, built from its coefficient layout, is built
        # on the first step and reused by every later one
        fm = flatten_map(pert(c=0.1), 8)
        calls = []
        init = MapEvaluator.__init__

        def counted(self, coef):
            calls.append(1)
            init(self, coef)

        monkeypatch.setattr(MapEvaluator, "__init__", counted)
        rng = np.random.default_rng(3)
        for _ in range(200):
            shadow_step_check(fm, sample_shadow_pair(rng, 0.05, 8), 8)
        assert len(calls) == 1


class TestOrbitExperiment:
    def test_zero_offset_stays_zero(self):
        trace = orbit_shadow_experiment(canon(), 0.01, 0.0, 30, 8)
        assert np.all(trace.metrics == 0.0)

    def test_canonical_orbit_contracts(self):
        trace = orbit_shadow_experiment(canon(), 0.01, 1e-30, 50, 8)
        assert len(trace) == 51 and not trace.truncated
        assert np.all(np.diff(trace.metrics) <= 0.0)
        # final separation is controlled by the initial metric
        xf = trace.xs[-1]
        dist = abs(trace.dxs[-1]) + abs(trace.dys[-1])
        assert dist <= trace.metrics[0] * xf**8 * (1.0 + xf**3)

    def test_perturbed_orbit_contracts(self):
        trace = orbit_shadow_experiment(pert(c=0.1), 0.01, 1e-30, 50, 8)
        assert np.all(np.diff(trace.metrics) <= 0.0)

    def test_escape_truncates_with_warning(self):
        with pytest.warns(UserWarning, match="truncated"):
            trace = orbit_shadow_experiment(canon(), 0.09, 1e-30, 50, 8)
        assert trace.truncated
        assert len(trace) < 51

    def test_seed_hypothesis_enforced(self):
        with pytest.raises(ValueError, match="ytilde0"):
            orbit_shadow_experiment(canon(), 0.01, 1.0, 10, 8)


def _pair(x, y=0.0, xhat=None, yhat=None):
    return ShadowPair(Point(x, y), Point(x if xhat is None else xhat, y if yhat is None else yhat))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: _pair(0.0), "the base point needs x > 0: x = 0"),
        (lambda: _metric(-0.1, 0.0, 0.0, "x"), "metric needs a positive base abscissa: x = -0.1"),
        (lambda: shadow_step_check(canon(), _pair(0.2), delta=0.05),
         "hypothesis 0 < x <= delta failed: x = 0.2, delta = 0.05"),
        (lambda: shadow_step_check(canon(), _pair(0.01, 1e-3)),
         "hypothesis |y| <= x^8 failed: |y| = 1.000e-03, x = 0.01"),
        (lambda: shadow_step_check(canon(), _pair(0.01, xhat=0.011)),
         "hypothesis metric <= 1 failed: metric = 1e+13"),
        (lambda: orbit_shadow_experiment(canon(), -0.1, 0.0, 5), "x0 = -0.1 must be positive"),
        (lambda: orbit_shadow_experiment(canon(), 0.01, 1.0, 5),
         "|ytilde0| = 1 must not exceed x0^8 = 1e-16"),
        (lambda: orbit_shadow_experiment(canon(), 0.01, 1e-30, -3), "steps = -3 must not be negative"),
        (lambda: orbit_shadow_experiment(canon(), 0.01, 1e-30, 5, delta=-1.0),
         "delta = -1 must be finite and positive"),
        (lambda: orbit_shadow_experiment(canon(), 0.01, 1e-30, 5, delta=math.nan),
         "delta = nan must be finite and positive"),
        (lambda: orbit_shadow_experiment(canon(), 0.01, 1e-30, 5, delta=math.inf),
         "delta = inf must be finite and positive"),
        (lambda: repulsion_check(canon(), Series1([0.0, 0.0]), 0.02, 1e-9, -1),
         "steps = -1 must not be negative"),
        (lambda: repulsion_check(canon(), Series1([0.0, 0.0]), 0.02, 1e-9, 5, delta=0.0),
         "delta = 0 must be finite and positive"),
        (lambda: Point(float("inf"), 0.0), "point components must be finite: (inf, 0)"),
        (lambda: to_planar_series(pert(c=0.1), 2), "map degree 3 exceeds requested order 2"),
    ],
)
def test_argument_errors_are_typed_and_name_their_value(call, message):
    with pytest.raises(DomainError, match=re.escape(message)) as err:
        call()
    assert isinstance(err.value, ValueError)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: shadow_step_check(pert(), _pair(1e100), delta=1e300),
         "the pair's base abscissa x = 1e+100 is too large: its power 8 overflows"),
        # x^3 fits, the metric's x^8 does not
        (lambda: shadow_step_check(pert(), _pair(1e50), 3, delta=1e300),
         "the pair's base abscissa x = 1e+50 is too large: its power 8 overflows"),
        # the pair fits, the image's x^8 does not
        (lambda: shadow_step_check(pert(), _pair(1e37), delta=1e300),
         "the image abscissa X = 1e+74 is too large: its power 8 overflows"),
        (lambda: orbit_shadow_experiment(pert(), 1e100, 1e-30, 5, delta=1e300),
         "x0 = 1e+100 is too large: its power 8 overflows"),
        (lambda: orbit_shadow_experiment(pert(), 1e30, 0.0, 5, delta=1e300),
         "the orbit's abscissa x = 1e+60 is too large: its power 8 overflows"),
        (lambda: repulsion_check(pert(), Series1([0.0, 0.0]), 1e200, 0.0, 5, delta=1e300),
         "x0 = 1e+200 is too large: its power 3 overflows"),
        (lambda: shadow_metric(_pair(1e50)),
         "the pair's base abscissa x = 1e+50 is too large: its power 8 overflows"),
        # x^3 and x^8 underflow to 0
        (lambda: shadow_step_check(pert(), _pair(1e-120)),
         "the pair's base abscissa x = 1e-120 is too small: its power 8 underflows to 0"),
        (lambda: orbit_shadow_experiment(pert(), 1e-200, 0.0, 5),
         "x0 = 1e-200 is too small: its power 8 underflows to 0"),
        # x^3 is a float, x^8 underflows to 0
        (lambda: shadow_metric(_pair(1e-50)),
         "the pair's base abscissa x = 1e-50 is too small: its power 8 underflows to 0"),
    ],
)
def test_powers_that_overflow_or_underflow_are_domain_errors(call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()
