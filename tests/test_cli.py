import dataclasses
import warnings

import numpy as np
import pytest

from invcurve import (
    SolverConfig,
    cli,
    format_map_spec,
    graphtransform,
    invariance_residual,
    parameterize_manifold,
    pert,
    solve_manifold,
)
from invcurve.cli import EXIT_VERIFY_FAILED, main, resolve_map
from invcurve.parameterization import RepulsionTrace
from invcurve.shadowing import OrbitTrace
from oracles import acceptance_battery

FAST = ["--rho0", "0.00625", "--grid", "128"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(text):
    pairs = {}
    for line in text.splitlines():
        if " = " in line:
            key, _, val = line.partition(" = ")
            pairs[key.strip()] = val.strip()
    return pairs


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    cols = {h: [] for h in header}
    for ln in lines[1:]:
        for h, v in zip(header, ln.split(",")):
            cols[h].append(float(v))
    return {h: np.array(v) for h, v in cols.items()}


def _growing_orbit(monkeypatch):
    """Make the orbit experiment return a trace whose metric grows."""
    xs = np.array([0.01, 0.0101])
    growing = OrbitTrace(np.array([1e-9, 2e-9]), xs, xs, np.zeros(2), np.zeros(2), False)
    monkeypatch.setattr(cli, "orbit_shadow_experiment", lambda *args, **kw: growing)


class TestMapResolution:
    def test_builtin_with_parameters(self):
        m = resolve_map("builtin:CANON(lambda=2,mu=-1)")
        assert m.lam == 2.0 and m.mu == -1.0

    def test_builtin_defaults(self):
        m = resolve_map("builtin:PERT")
        assert m.lam == 1.0 and m.y_terms[(3, 0)] == 0.1

    def test_unknown_builtin(self, capsys):
        code, _, err = run_cli(capsys, "normalize", "--map", "builtin:NOPE")
        assert code == 1 and "NOPE" in err

    def test_spec_file(self, tmp_path, capsys):
        path = tmp_path / "m.map"
        path.write_text("X 1 0 1\nX 2 0 1\nY 0 1 -1\nY 1 1 1\nY 3 0 0.2\n")
        code, out, _ = run_cli(capsys, "normalize", "--map", str(path))
        assert code == 0
        assert parse_report(out)["gamma_3"] == "-0.10000000000000001"

    def test_bad_spec_file(self, tmp_path, capsys):
        path = tmp_path / "bad.map"
        path.write_text("X 1 0 1\nfrogs\n")
        code, _, err = run_cli(capsys, "normalize", "--map", str(path))
        assert code == 1 and "line 2" in err

    def test_builtin_parameter_that_is_not_a_number(self, capsys):
        code, out, err = run_cli(capsys, "normalize", "--map", "builtin:CANON(lambda=abc)")
        assert code == 1 and out == ""
        assert err == "InvcurveError: CANON parameter 'lambda=abc' is not a number\n"

    def test_builtin_parameter_given_twice(self, capsys):
        code, out, err = run_cli(capsys, "normalize", "--map", "builtin:CANON(lambda=1, lambda=2)")
        assert code == 1 and out == ""
        assert err == "InvcurveError: CANON parameter 'lambda' is given twice\n"


class TestFileErrors:
    def test_unreadable_map_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nonexistent.spec")
        for cmd in ("compare", "normalize"):
            code, out, err = run_cli(capsys, cmd, "--map", missing)
            assert code == 1 and out == ""
            assert err.startswith(f"InvcurveError: cannot read map file {missing!r}: ")
            assert err.count("\n") == 1

    def test_unwritable_output_file(self, tmp_path, capsys):
        target = str(tmp_path / "nonexistent" / "x")
        for cmd in ("normalize", "manifold-param"):
            code, out, err = run_cli(capsys, cmd, "--map", "builtin:CANON", "--out", target)
            assert code == 1 and out == ""
            assert err.startswith(f"InvcurveError: cannot write output file {target!r}: ")
            assert err.count("\n") == 1


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_map_flag(self, capsys):
        assert main(["manifold-gt"]) == 2

    def test_no_command(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["manifold-param", "--map", "builtin:CANON", "--delta", "0.1"],
            # not a prefix of --x0 either
            ["repulsion", "--map", "builtin:PERT", "--x", "0.02", "--offset", "1e-9"],
        ],
    )
    def test_flag_the_command_does_not_read(self, capsys, argv):
        assert main(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", ["0", "-3", "2.5"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-invariance", "--map", "builtin:PERT"],
            ["verify-shadow", "--map", "builtin:PERT", "--x0", "0.01"],
            ["repulsion", "--map", "builtin:PERT", "--x0", "0.02", "--offset", "1e-9"],
        ],
    )
    def test_step_count_is_a_whole_number_of_at_least_one(self, capsys, argv, steps):
        code, out, err = run_cli(capsys, *argv, "--steps", steps)
        assert code == 2 and not out
        assert f"--steps: must be a whole number of at least 1, got '{steps}'" in err


class TestManifoldGt:
    def test_canonical_curve_csv(self, capsys):
        code, out, err = run_cli(
            capsys, "manifold-gt", "--map", "builtin:CANON(lambda=1,mu=0)", *FAST
        )
        assert code == 0
        cols = parse_csv(out)
        assert np.max(np.abs(cols["F"])) <= 1e-12
        report = parse_report(err)
        gaps = [float(v) for key, v in report.items() if key.startswith("gap_")]
        assert gaps and gaps[-1] <= SolverConfig().tol_converge

    def test_output_file_and_determinism(self, tmp_path, capsys):
        target = tmp_path / "curve.csv"
        args = ["manifold-gt", "--map", "builtin:PERT(lambda=1,mu=0,c=0.1)", *FAST,
                "--out", str(target)]
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        first = target.read_bytes()
        assert "tangency_a3" in out
        code, _, _ = run_cli(capsys, *args)
        assert code == 0
        assert target.read_bytes() == first

    def test_report_counts_regraphs_per_level(self, capsys):
        spec = "builtin:PERT(lambda=1,mu=0,c=0.1)"
        code, _, err = run_cli(capsys, "manifold-gt", "--map", spec, *FAST)
        assert code == 0
        report = parse_report(err)
        _, _, diag = solve_manifold(resolve_map(spec), SolverConfig(rho0=0.00625, grid_size=128))
        assert int(report["levels"]) == len(diag.levels)
        for i, lv in enumerate(diag.levels):
            assert int(report[f"regraphs_{i}"]) == lv.regraphs
            assert 1 <= lv.regraphs < lv.nu_bar

    def test_report_prints_the_seed_error_estimate_after_the_gaps(self, capsys):
        spec = "builtin:PERT(lambda=1,mu=0,c=0.1)"
        code, _, err = run_cli(capsys, "manifold-gt", "--map", spec, *FAST)
        assert code == 0
        report = parse_report(err)
        _, _, diag = solve_manifold(resolve_map(spec), SolverConfig(rho0=0.00625, grid_size=128))
        assert float(report["seed_error_est"]) == diag.seed_error_est
        keys = list(report)
        assert keys.index("seed_error_est") == keys.index(f"gap_{len(diag.gaps) - 1}") + 1

    def test_seed_length_matches_the_library_default(self, capsys):
        args = ["manifold-gt", "--map", "builtin:PERT", "--grid", "128"]
        code, _, err = run_cli(capsys, *args)
        assert code == 0
        assert float(parse_report(err)["rho_0"]) == SolverConfig().initial_rho()
        code, _, err = run_cli(capsys, *args, "--rho0", "0.00625")
        assert code == 0
        assert float(parse_report(err)["rho_0"]) == 0.00625

    def test_huge_delta_is_a_guard_error(self, capsys):
        # delta / rho would overflow in the step cap; the push guards trip
        args = ["manifold-gt", "--map", "builtin:PERT", "--delta", "1e308"]
        code, out, err = run_cli(capsys, *args)
        assert code == 1
        assert out == ""
        assert err.startswith("GuardError: |F|/x^3 reached ")

    def test_tiny_seed_is_a_domain_error(self, capsys):
        # validate names it before 2 / rho0 can overflow in the step cap
        code, out, err = run_cli(capsys, "manifold-gt", "--map", "builtin:PERT", "--rho0", "5e-324")
        assert (code, out) == (1, "")
        assert err == (
            "DomainError: rho0 = 5e-324 is too small: rho0 * GRID_SPAN = 0 is not a normal float\n"
        )

    def test_seed_beyond_the_push_budget_is_a_domain_error(self, capsys, monkeypatch):
        # about 5e8 pushes in the first level: validate rejects the seed
        # before the solve prepares its map
        def no_solve(*args):
            raise AssertionError("the solve started")

        monkeypatch.setattr(graphtransform, "_prepare", no_solve)
        code, out, err = run_cli(capsys, "manifold-gt", "--map", "builtin:PERT", "--rho0", "1e-9")
        assert (code, out) == (1, "")
        assert err == (
            "DomainError: rho0 = 1e-09 is too small: the first level needs about 5e+08 pushes, "
            "above PUSH_BUDGET = 100000\n"
        )


def test_every_solver_config_field_has_a_flag():
    # a setting that no flag reaches is a constant of the method, not a field
    fields = sorted(f.name for f in dataclasses.fields(SolverConfig))
    assert fields == sorted(cli._SOLVER_FLAGS.values())


class TestManifoldParam:
    def test_phi_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "manifold-param", "--map", "builtin:PERT(lambda=1,mu=0,c=0.1)"
        )
        assert code == 0
        cols = parse_csv(out)
        k3 = int(np.argmax(cols["k"] == 3))
        assert cols["phi_k"][k3] == pytest.approx(0.05, abs=1e-12)

    def test_report_carries_model_coefficient(self, capsys):
        code, _, err = run_cli(capsys, "manifold-param", "--map", "builtin:CANON")
        assert code == 0
        assert parse_report(err)["d"] == "6"

    def test_report_values_are_the_library_values_as_binary64(self, capsys):
        code, _, err = run_cli(capsys, "manifold-param", "--map", "builtin:PERT", "--order", "6")
        assert code == 0
        conj = parameterize_manifold(pert(), 6)
        want = {"d": conj.d}
        for name, k in (("K1", conj.K1), ("K2", conj.K2)):
            want.update((f"{name}_{i}", k.coeff(i)) for i in range(7))
        report = parse_report(err)
        for key, value in want.items():
            assert report[key] == f"{float(value):.17g}", key

    def test_report_keys(self, capsys):
        code, _, err = run_cli(capsys, "manifold-param", "--map", "builtin:PERT", "--order", "6")
        assert code == 0
        ks = range(7)
        want = ["order", "d", "residual_max", *(f"K{c}_{k}" for c in "12" for k in ks)]
        assert list(parse_report(err)) == want
        assert parse_report(err)["order"] == "6"


class TestVerifyCommands:
    def test_invariance_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-invariance", "--map", "builtin:CANON", *FAST
        )
        assert code == 0
        assert parse_report(out)["status"] == "PASS"

    def test_invariance_fail_exit_status(self, capsys):
        # --tol is the verification tolerance; the solve still converges
        code, out, _ = run_cli(
            capsys, "verify-invariance", "--map", "builtin:PERT(lambda=1,mu=0,c=0.1)",
            *FAST, "--tol", "1e-30",
        )
        assert code == EXIT_VERIFY_FAILED == 3
        rep = parse_report(out)
        assert rep["status"] == "FAIL"
        assert float(rep["max_residual"]) > 1e-30

    @pytest.mark.parametrize(
        "tol, code, status", [(None, 0, "PASS"), ("1e-30", EXIT_VERIFY_FAILED, "FAIL")]
    )
    def test_invariance_on_a_battery_map(self, tmp_path, capsys, tol, code, status):
        m = acceptance_battery(1729)[2]
        path = tmp_path / "battery2.map"
        path.write_text(format_map_spec(m), encoding="utf-8")
        argv = ["verify-invariance", "--map", str(path), *FAST]
        got, out, err = run_cli(capsys, *argv, *(["--tol", tol] if tol else []))
        rep = parse_report(out)
        assert (got, rep["status"], err) == (code, status, "")
        curve, _, _ = solve_manifold(m, SolverConfig(rho0=0.00625, grid_size=128))
        max_res, lib = invariance_residual(m, curve)
        assert rep["max_residual"] == f"{max_res:.17g}"
        assert rep["samples"] == str(lib.xs.size) and "failures" not in rep

    def test_shadow_pair_example(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify-shadow", "--map", "builtin:CANON",
            "--x", "0.1", "--xhat", "0.100000001", "--y", "0", "--yhat", "0",
        )
        assert code == 0
        rep = parse_report(out)
        assert rep["status"] == "PASS"
        assert float(rep["before"]) == pytest.approx(0.1, rel=1e-6)
        assert float(rep["after"]) == pytest.approx(0.056, rel=2e-2)

    def test_shadow_orbit_csv(self, capsys):
        code, out, err = run_cli(
            capsys,
            "verify-shadow", "--map", "builtin:CANON",
            "--x0", "0.01", "--offset", "1e-30", "--steps", "40",
        )
        assert code == 0
        cols = parse_csv(out)
        assert set(cols) == {"step", "x", "xhat", "metric"}
        assert np.all(np.diff(cols["metric"]) <= 0.0)
        assert parse_report(err)["status"] == "PASS"

    def test_shadow_pair_on_a_battery_map(self, tmp_path, capsys):
        # on the raw map y = 0 is O(x^3) off the curve and this pair fails;
        # flattened to N = 8 it is O(x^9) off, and the metric contracts
        path = tmp_path / "battery2.map"
        path.write_text(format_map_spec(acceptance_battery(1729)[2]), encoding="utf-8")
        pair = ["--x", "0.02", "--xhat", "0.02000000000001", "--y", "0", "--yhat", "0"]
        code, out, err = run_cli(capsys, "verify-shadow", "--map", str(path), *pair)
        assert (code, err) == (0, "")
        rep = parse_report(out)
        assert rep["status"] == "PASS" and float(rep["after"]) < float(rep["before"])

    def test_shadow_pair_fail_exit_status(self, capsys):
        # flattened only to N = 3, Y keeps an x^4 term: an x offset picks up
        # a y offset of order x^3 dx, which the x^-3 weight of the metric
        # turns into an x offset of order dx
        code, out, _ = run_cli(
            capsys, "verify-shadow", "--map", "builtin:PERT", "--x", "0.05", "--xhat", "0.05000000002",
            "--order", "3",
        )
        assert code == EXIT_VERIFY_FAILED
        rep = parse_report(out)
        assert rep["status"] == "FAIL"
        assert float(rep["after"]) > float(rep["before"])

    def test_shadow_needs_arguments(self, capsys):
        code, _, err = run_cli(capsys, "verify-shadow", "--map", "builtin:CANON")
        assert code == 1 and "--x" in err

    def test_shadow_pair_needs_xhat(self, capsys):
        code, out, err = run_cli(capsys, "verify-shadow", "--map", "builtin:CANON", "--x", "0.1")
        assert code == 1 and out == ""
        assert err == "InvcurveError: verify-shadow --x needs --xhat\n"

    @pytest.mark.parametrize(
        "extra, ignored",
        [
            (["--x0", "0.01"], "--x0"),
            (["--offset", "1e-30", "--steps", "5"], "--offset, --steps"),
        ],
    )
    def test_shadow_pair_rejects_orbit_flags(self, capsys, extra, ignored):
        pair = ["--x", "0.1", "--xhat", "0.100000001"]
        code, out, err = run_cli(capsys, "verify-shadow", "--map", "builtin:CANON", *pair, *extra)
        assert code == 1 and out == ""
        assert err == (
            f"InvcurveError: verify-shadow --x runs the pair check, which ignores {ignored}\n"
        )

    @pytest.mark.parametrize(
        "extra, ignored",
        [
            (["--xhat", "0.2"], "--xhat"),
            (["--y", "0", "--yhat", "0"], "--y, --yhat"),
        ],
    )
    def test_shadow_orbit_rejects_pair_flags(self, capsys, extra, ignored):
        orbit = ["--x0", "0.01", "--offset", "1e-30"]
        code, out, err = run_cli(capsys, "verify-shadow", "--map", "builtin:CANON", *orbit, *extra)
        assert code == 1 and out == ""
        assert err == (
            "InvcurveError: verify-shadow without --x runs the orbit trace, "
            f"which ignores {ignored}\n"
        )

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--x", "1e100", "--xhat", "1e100"],
             "the pair's base abscissa x = 1e+100 is too large: its power 8 overflows"),
            (["--x0", "1e100", "--offset", "0"], "x0 = 1e+100 is too large: its power 8 overflows"),
        ],
    )
    def test_shadow_overflow_is_a_domain_error(self, capsys, flags, message):
        code, out, err = run_cli(
            capsys, "verify-shadow", "--map", "builtin:PERT", *flags, "--delta", "1e300"
        )
        assert code == 1 and out == ""
        assert err == f"DomainError: {message}\n"

    def test_shadow_orbit_fail_exit_status(self, capsys, monkeypatch):
        _growing_orbit(monkeypatch)
        code, out, err = run_cli(
            capsys, "verify-shadow", "--map", "builtin:CANON", "--x0", "0.01", "--offset", "1e-30"
        )
        assert code == EXIT_VERIFY_FAILED
        assert parse_csv(out)["metric"].tolist() == [1e-9, 2e-9]
        assert parse_report(err)["status"] == "FAIL"


class TestRepulsion:
    def test_trace_and_ratio(self, capsys):
        code, out, err = run_cli(
            capsys,
            "repulsion", "--map", "builtin:PERT(lambda=1,mu=0,c=0.1)",
            "--x0", "0.02", "--offset", "1e-9", "--steps", "20",
        )
        assert code == 0
        cols = parse_csv(out)
        assert set(cols) == {"step", "x", "deviation"}
        rep = parse_report(err)
        assert float(rep["first_step_ratio"]) == pytest.approx(1.04, rel=5e-2)
        assert rep["monotone_deviation"] == "True"
        assert rep["status"] == "PASS"

    def test_truncated_trace_fails(self, capsys):
        # CANON(lambda=4) inverts (0.5, y) from (0.25, -y), where dY/dy = 0:
        # the first inversion fails and the trace stops at its start; the
        # library's warning reaches stderr as one `warning: ...` line, without
        # the file, line, category and source line of Python's own format
        with warnings.catch_warnings(record=True) as escaped:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                capsys,
                "repulsion", "--map", "builtin:CANON(lambda=4)",
                "--x0", "0.5", "--offset", "1e-9", "--delta", "1", "--steps", "5",
            )
        assert escaped == []
        assert code == EXIT_VERIFY_FAILED
        assert out == "step,x,deviation\n0,0.5,1.0000000000000001e-09\n"
        lines = err.splitlines()
        assert lines[0] == (
            "warning: pointwise inversion failed (point inversion hit a singular "
            "Jacobian at (0.25, -1e-09) (determinant 0.0)); trace truncated"
        )
        assert all(" = " in line for line in lines[1:])
        rep = parse_report(err)
        assert rep["truncated"] == "True" and rep["steps"] == "0"
        assert rep["status"] == "FAIL"

    def test_shrinking_deviation_fails(self, capsys, monkeypatch):
        shrinking = RepulsionTrace(np.array([0.02, 0.0196]), np.array([1e-9, 5e-10]), False)
        monkeypatch.setattr(cli, "repulsion_check", lambda *args: shrinking)
        code, _, err = run_cli(
            capsys, "repulsion", "--map", "builtin:PERT", "--x0", "0.02", "--offset", "1e-9"
        )
        assert code == EXIT_VERIFY_FAILED
        rep = parse_report(err)
        assert rep["monotone_deviation"] == "False" and rep["status"] == "FAIL"


class TestCompare:
    def test_perturbed_map_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--map", "builtin:PERT(lambda=1,mu=0,c=0.1)", *FAST
        )
        assert code == 0
        rep = parse_report(out)
        assert float(rep["param_a3"]) == pytest.approx(0.05, abs=1e-10)
        assert float(rep["gt_a3"]) == pytest.approx(0.05, rel=1e-2)
        assert float(rep["sup_disagreement"]) <= 1e-9
        assert rep["status"] == "PASS"

    def test_disagreement_above_bound_fails(self, capsys, monkeypatch):
        # with both parts of the bound at zero any nonzero disagreement fails
        monkeypatch.setattr(cli, "COMPARE_FLOOR", 0.0)
        monkeypatch.setattr(cli, "COMPARE_CUBIC", 0.0)
        code, out, _ = run_cli(
            capsys, "compare", "--map", "builtin:PERT(lambda=1,mu=0,c=0.1)", *FAST
        )
        assert code == EXIT_VERIFY_FAILED
        rep = parse_report(out)
        assert rep["status"] == "FAIL"
        assert float(rep["sup_disagreement"]) > 0.0

    def test_canonical_map_agrees_exactly(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--map", "builtin:CANON", *FAST)
        assert code == 0
        assert float(parse_report(out)["sup_disagreement"]) <= 1e-12


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    assert cli._parser() is cli._parser()
    compare = ["compare", "--map", "builtin:PERT(lambda=1,mu=0,c=0.1)", *FAST]
    gt = ["manifold-gt", "--map", "builtin:PERT(lambda=1,mu=0,c=0.1)", *FAST]

    def run(argv, name):
        target = tmp_path / name
        assert main([*argv, "--out", str(target)]) == 0
        capsys.readouterr()
        return target.read_bytes()

    together = (run(compare, "c1"), run(gt, "g1"))
    cli._parser.cache_clear()
    gt_alone = run(gt, "g2")
    cli._parser.cache_clear()
    compare_alone = run(compare, "c2")
    assert together == (compare_alone, gt_alone)


def _zero_compare_bound(monkeypatch):
    monkeypatch.setattr(cli, "COMPARE_FLOOR", 0.0)
    monkeypatch.setattr(cli, "COMPARE_CUBIC", 0.0)


# each verdict-bearing path of the CLI, once passing and once failing
VERDICTS = {
    "invariance-pass": ("PASS", None, ["verify-invariance", "--map", "builtin:CANON", *FAST]),
    "invariance-fail": (
        "FAIL", None, ["verify-invariance", "--map", "builtin:PERT", *FAST, "--tol", "1e-30"]
    ),
    "shadow-pair-pass": (
        "PASS", None,
        ["verify-shadow", "--map", "builtin:CANON", "--x", "0.1", "--xhat", "0.100000001"],
    ),
    "shadow-pair-fail": (
        "FAIL", None,
        ["verify-shadow", "--map", "builtin:PERT", "--x", "0.05", "--xhat", "0.05000000002",
         "--order", "3"],
    ),
    "shadow-orbit-pass": (
        "PASS", None,
        ["verify-shadow", "--map", "builtin:CANON", "--x0", "0.01", "--offset", "1e-30"],
    ),
    "shadow-orbit-fail": (
        "FAIL", _growing_orbit,
        ["verify-shadow", "--map", "builtin:CANON", "--x0", "0.01", "--offset", "1e-30"],
    ),
    "repulsion-pass": (
        "PASS", None, ["repulsion", "--map", "builtin:PERT", "--x0", "0.02", "--offset", "1e-9"]
    ),
    "repulsion-fail": (
        "FAIL", None,
        ["repulsion", "--map", "builtin:CANON(lambda=4)", "--x0", "0.5", "--offset", "1e-9",
         "--delta", "1", "--steps", "5"],
    ),
    "compare-pass": ("PASS", None, ["compare", "--map", "builtin:PERT", *FAST]),
    "compare-fail": ("FAIL", _zero_compare_bound, ["compare", "--map", "builtin:PERT", *FAST]),
}


@pytest.mark.parametrize("case", list(VERDICTS))
def test_exit_status_is_3_exactly_when_the_report_says_fail(capsys, monkeypatch, case):
    expected, patch, argv = VERDICTS[case]
    if patch is not None:
        patch(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    # the report is stdout when there is no CSV, else stderr after any warning
    report = [ln for ln in (out if " = " in out else err).splitlines() if " = " in ln]
    assert report[-1] == f"status = {expected}"
    assert sum(ln.startswith("status = ") for ln in report) == 1
    assert code == (EXIT_VERIFY_FAILED if expected == "FAIL" else 0)
