import numpy as np
import pytest

from invcurve import (
    PlanarSeriesMap,
    Point,
    ShadowPair,
    canon,
    orbit_shadow_experiment,
    pert,
    shadow_metric,
    shadow_step_check,
)
from oracles import acceptance_battery, flatten_map, offset_image_termwise, sample_shadow_pair


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
                offsets = fm.evaluator.offset(x, y, dx, dy)
                for terms, got in zip(fm.sorted_terms(), offsets):
                    want = offset_image_termwise(terms, x, y, dx, dy)
                    assert abs(got - want) <= 8.0 * eps * abs(want), (pair, got, want)

    def test_map_terms_are_read_once_per_map(self, monkeypatch):
        fm = flatten_map(pert(c=0.1), 8)
        calls = []
        sorted_terms = PlanarSeriesMap.sorted_terms

        def counted(self):
            calls.append(1)
            return sorted_terms(self)

        monkeypatch.setattr(PlanarSeriesMap, "sorted_terms", counted)
        rng = np.random.default_rng(3)
        for _ in range(200):
            shadow_step_check(fm, sample_shadow_pair(rng, 0.05, 8), 8)
        assert len(calls) <= 1


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
