"""Tests of the benchmark's own inputs, gates and tracer.

Run from the repository root (sympy is needed, as for the test suite):

    python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _p in (HERE, ROOT / "tests", ROOT / "src"):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import invcurve as ic  # noqa: E402
import battery  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _same(a: ic.MapSpec, b: ic.MapSpec) -> bool:
    return a.x_terms == b.x_terms and a.y_terms == b.y_terms


def test_seed_1729_is_the_acceptance_battery():
    import test_acceptance

    ours = battery.battery(battery.ACCEPTANCE_SEED)
    assert len(ours) == len(test_acceptance.BATTERY) == 12
    assert all(_same(a, b) for a, b in zip(ours, test_acceptance.BATTERY))


def test_other_seed_draws_other_maps():
    base = battery.battery(battery.ACCEPTANCE_SEED)
    other = battery.battery(battery.ACCEPTANCE_SEED + 1)
    assert all(_same(a, b) for a, b in zip(base[:2], other[:2]))  # CANON, PERT
    assert not any(_same(a, b) for a, b in zip(base[2:], other[2:]))
    again = battery.battery(battery.ACCEPTANCE_SEED + 1)
    assert all(_same(a, b) for a, b in zip(other, again))


def test_shadow_pairs_meet_the_hypotheses():
    pairs = battery.shadow_pairs(np.random.default_rng(7), 400)
    fm = ic.normalize_to_order(ic.to_planar_series(ic.pert(1.0, 0.0, 0.1), 12), 8).normalized
    for pair in pairs:
        assert 0.0 < pair.p.x <= battery.DELTA
        assert abs(pair.p.y) <= pair.p.x**battery.N_POWER
        assert abs(pair.q.y) <= pair.q.x**battery.N_POWER
        assert ic.shadow_metric(pair) <= 1.0
        ic.shadow_step_check(fm, pair, battery.N_POWER, battery.DELTA)  # raises outside


def _one_op(wl, state, item, tracer=None) -> run.Tally:
    tally = run.Tally()
    run._run_op(workloads, wl, state, item, tally, tracer)
    return tally


def test_spoiled_phi_fails_the_operation(monkeypatch, tmp_path):
    wl = workloads.ConjOrders()
    state = wl.setup(battery.ACCEPTANCE_SEED, tmp_path)
    assert not _one_op(wl, state, 1).failures

    real = ic.parameterize_manifold

    def spoiled(m, order):
        res = real(m, order)
        coeffs = list(res.phi.coeffs)
        coeffs[5] += 1e-6
        return dataclasses.replace(res, phi=ic.Series1(tuple(coeffs)))

    monkeypatch.setattr(ic, "parameterize_manifold", spoiled)
    tally = _one_op(wl, state, 1)
    assert tally.attempted == 1
    assert len(tally.failures) == 1 and "acc.graph_invariance_max" in tally.failures[0]


def test_compare_gate(tmp_path):
    wl = workloads.CompareBattery()
    state = wl.setup(battery.ACCEPTANCE_SEED, tmp_path)
    good = b"sup_disagreement = 1e-12\n"
    assert wl.check(state, 3, (0, good)).failure is None
    assert "exited" in wl.check(state, 3, (1, good)).failure
    assert "bound" in wl.check(state, 4, (0, b"sup_disagreement = 2e-9\n")).failure
    drifted = wl.check(state, 3, (0, b"sup_disagreement = 1.0000000000000001e-12\n"))
    assert "byte-identical" in drifted.failure


def test_failing_or_raising_operation_counts_as_failed(monkeypatch, tmp_path):
    wl = workloads.CompareBattery()
    state = wl.setup(battery.ACCEPTANCE_SEED, tmp_path)
    assert not _one_op(wl, state, 0).failures
    state["specs"][0].write_text("X 1 0 1.0\n", encoding="utf-8")  # no quadratic skeleton
    tally = _one_op(wl, state, 0)
    assert tally.attempted == 1 and "exited with status 1" in tally.failures[0]

    def broken(argv):
        raise RuntimeError("boom")

    monkeypatch.setattr(workloads.cli, "main", broken)
    tally = _one_op(wl, state, 1)
    assert tally.failures == ["RuntimeError: boom"]


def test_spoiled_curve_fails_certify(tmp_path):
    wl = workloads.Certify()
    state = wl.setup(battery.ACCEPTANCE_SEED, tmp_path)
    assert not _one_op(wl, state, 1).failures
    curve = state["curves"][1]
    state["curves"][1] = ic.Curve(curve.xs, curve.fs + 1e-4 * curve.xs)
    tally = _one_op(wl, state, 1)
    assert len(tally.failures) == 1 and "invariance" in tally.failures[0]


def test_tracer_records_and_restores(tmp_path):
    originals = (ic.parameterize_manifold, ic.series.Series2.__mul__, ic.graphtransform.brentq)
    wl = workloads.ConjOrders()
    state = wl.setup(battery.ACCEPTANCE_SEED, tmp_path)
    tracer = Tracer()
    tally = _one_op(wl, state, 1, tracer)
    assert not tally.failures
    assert (ic.parameterize_manifold, ic.series.Series2.__mul__, ic.graphtransform.brentq) == originals
    summary = tracer.summary()
    assert summary.count("op") == 1
    assert summary.count("parameterization.solve_conjugacy") == 2
    assert summary.count("series.Series2.mul") > 0
    assert np.all(summary.self_time >= -1e-9)
    top = summary.mask("op")
    assert summary.dur[top].sum() >= summary.self_time.sum() - 1e-6
    layers = workloads.layer_metrics(summary, tracer.records, 1, 0.0)
    assert [name for name, _ in workloads.PER_LAYER] == list(layers)
    assert layers["parameterization.stage_ms"] > 0.0
    assert layers["graphtransform.pushes"] == 0.0
    tracer.dump(tmp_path / "spans.npz")
    with np.load(tmp_path / "spans.npz") as saved:
        assert saved["start"].size == summary.dur.size


def test_cached_interpolator_stops_recording_after_uninstall():
    curve = ic.Curve(ic.graded_grid(0.05, 64), 0.05 * ic.graded_grid(0.05, 64) ** 3)
    tracer = Tracer()
    tracer.install()
    curve.eval(0.01)  # caches a traced interpolator on the curve
    tracer.uninstall()
    recorded = len(tracer.start)
    assert recorded > 0
    curve.eval(0.02)
    assert len(tracer.start) == recorded


@pytest.mark.parametrize("samples, expected", [(10, None), (11, 9.1), (100, 90.0)])
def test_tail_percentile(samples, expected):
    tail = run._tail([float(k) for k in range(samples)])
    assert tail["percentile"] == expected
    if expected is not None:
        assert tail["beyond"] == 10


def test_benchmark_json_matches_the_code():
    import json

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == workloads.PER_LAYER
