import numpy as np
import pytest

from invcurve import SolverConfig, cli
from invcurve.cli import EXIT_VERIFY_FAILED, main, resolve_map

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


class TestManifoldGt:
    def test_canonical_curve_csv(self, capsys):
        code, out, err = run_cli(
            capsys, "manifold-gt", "--map", "builtin:CANON(lambda=1,mu=0)", *FAST
        )
        assert code == 0
        cols = parse_csv(out)
        assert np.max(np.abs(cols["F"])) <= 1e-12
        assert "converged = True" in err

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

    def test_seed_length_matches_the_library_default(self, capsys):
        args = ["manifold-gt", "--map", "builtin:PERT", "--grid", "128"]
        code, _, err = run_cli(capsys, *args)
        assert code == 0
        assert float(parse_report(err)["rho_0"]) == SolverConfig().initial_rho()
        code, _, err = run_cli(capsys, *args, "--rho0", "0.00625")
        assert code == 0
        assert float(parse_report(err)["rho_0"]) == 0.00625


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

    def test_shadow_pair_fail_exit_status(self, capsys):
        # on the raw perturbed map an x offset picks up a y offset of order
        # x^2 dx, which the x^-3 weight of the metric blows up
        code, out, _ = run_cli(
            capsys, "verify-shadow", "--map", "builtin:PERT", "--x", "0.05", "--xhat", "0.05000000002",
        )
        assert code == EXIT_VERIFY_FAILED
        rep = parse_report(out)
        assert rep["status"] == "FAIL"
        assert float(rep["after"]) > float(rep["before"])

    def test_shadow_needs_arguments(self, capsys):
        code, _, err = run_cli(capsys, "verify-shadow", "--map", "builtin:CANON")
        assert code == 1 and "--x" in err


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
