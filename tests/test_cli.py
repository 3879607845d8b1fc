"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.core import load_model, save_model

from tests.conftest import build_toy_builder


@pytest.fixture()
def toy_model_file(toy_model, tmp_path):
    path = tmp_path / "toy.json"
    save_model(toy_model, path)
    return path


class TestInfo:
    def test_model_file(self, toy_model_file, capsys):
        assert main(["info", "--model", str(toy_model_file)]) == 0
        out = capsys.readouterr().out
        assert "SystemModel" in out
        assert "monitors" in out

    def test_casestudy(self, capsys):
        assert main(["info", "--casestudy"]) == 0
        assert "enterprise-web-service" in capsys.readouterr().out

    def test_missing_model_file(self, tmp_path, capsys):
        assert main(["info", "--model", str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err


class TestAudit:
    def test_clean_model(self, toy_model_file, capsys):
        assert main(["audit", "--model", str(toy_model_file)]) == 0

    def test_strict_fails_on_warnings(self, tmp_path, capsys):
        builder = build_toy_builder()
        builder.event("orphan", asset="h1")
        builder.attack("C", steps=["orphan"])
        path = tmp_path / "warn.json"
        save_model(builder.build(), path)
        assert main(["audit", "--model", str(path), "--strict"]) == 1
        assert "uncoverable" in capsys.readouterr().out

    def test_non_strict_reports_but_passes(self, tmp_path, capsys):
        builder = build_toy_builder()
        builder.data_type("unused")
        path = tmp_path / "info.json"
        save_model(builder.build(), path)
        assert main(["audit", "--model", str(path)]) == 0


class TestOptimize:
    def test_budget_fraction(self, toy_model_file, capsys):
        assert main(
            ["optimize", "--model", str(toy_model_file), "--budget-fraction", "0.5"]
        ) == 0
        assert "optimal" in capsys.readouterr().out

    def test_explicit_budget_and_outputs(self, toy_model_file, tmp_path, capsys):
        out = tmp_path / "dep.json"
        dot = tmp_path / "dep.dot"
        code = main(
            [
                "optimize",
                "--model", str(toy_model_file),
                "--budget", "cpu=6",
                "--out", str(out),
                "--dot", str(dot),
            ]
        )
        assert code == 0
        deployment = json.loads(out.read_text())
        assert isinstance(deployment, list)
        model = load_model(toy_model_file)
        assert set(deployment) <= set(model.monitors)
        assert dot.read_text().startswith("graph")

    def test_custom_weights(self, toy_model_file, capsys):
        assert main(
            [
                "optimize",
                "--model", str(toy_model_file),
                "--budget-fraction", "0.5",
                "--weights", "1,0,0",
            ]
        ) == 0

    def test_bad_weights(self, toy_model_file, capsys):
        assert main(
            [
                "optimize",
                "--model", str(toy_model_file),
                "--budget-fraction", "0.5",
                "--weights", "1,0",
            ]
        ) == 2
        assert "three numbers" in capsys.readouterr().err

    def test_missing_budget(self, toy_model_file, capsys):
        assert main(["optimize", "--model", str(toy_model_file)]) == 2

    def test_malformed_budget(self, toy_model_file, capsys):
        assert main(
            ["optimize", "--model", str(toy_model_file), "--budget", "cpu"]
        ) == 2

    def test_branch_and_bound_backend(self, toy_model_file, capsys):
        assert main(
            [
                "optimize",
                "--model", str(toy_model_file),
                "--budget-fraction", "0.5",
                "--backend", "branch-and-bound",
            ]
        ) == 0

    def test_parallel_bb_is_not_a_backend_choice(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "optimize", "--casestudy", "--budget-fraction", "0.3",
                    "--backend", "parallel-bb",
                ]
            )
        assert excinfo.value.code == 2
        assert "invalid choice: 'parallel-bb'" in capsys.readouterr().err


class TestMinCost:
    def test_min_utility(self, toy_model_file, capsys):
        assert main(
            ["mincost", "--model", str(toy_model_file), "--min-utility", "0.5"]
        ) == 0
        assert "scalar cost" in capsys.readouterr().out

    def test_fully_cover(self, toy_model_file, capsys):
        assert main(
            ["mincost", "--model", str(toy_model_file), "--fully-cover", "A,B"]
        ) == 0

    def test_no_requirements(self, toy_model_file, capsys):
        assert main(["mincost", "--model", str(toy_model_file)]) == 2

    def test_infeasible_requirement(self, toy_model_file, capsys):
        assert main(
            ["mincost", "--model", str(toy_model_file), "--min-utility", "0.999"]
        ) == 2
        assert "unattainable" in capsys.readouterr().err


class TestSweep:
    def test_prints_curve(self, toy_model_file, capsys):
        assert main(
            ["sweep", "--model", str(toy_model_file), "--fractions", "0.5,1.0"]
        ) == 0
        out = capsys.readouterr().out
        assert "Utility vs. budget" in out

    def test_csv_output(self, toy_model_file, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        assert main(
            [
                "sweep",
                "--model", str(toy_model_file),
                "--fractions", "1.0",
                "--csv", str(csv_path),
            ]
        ) == 0
        assert csv_path.read_text().startswith("budget_fraction")


class TestSimulate:
    def test_round_trip_with_optimize(self, toy_model_file, tmp_path, capsys):
        dep = tmp_path / "dep.json"
        main(["optimize", "--model", str(toy_model_file), "--budget-fraction", "1.0",
              "--out", str(dep)])
        capsys.readouterr()
        code = main(
            [
                "simulate",
                "--model", str(toy_model_file),
                "--deployment", str(dep),
                "--repetitions", "3",
                "--seed", "1",
            ]
        )
        assert code == 0
        assert "detection rate" in capsys.readouterr().out

    def test_bad_deployment_file(self, toy_model_file, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"not": "a list"}')
        assert main(
            ["simulate", "--model", str(toy_model_file), "--deployment", str(bad)]
        ) == 2

    def test_unknown_monitor_in_deployment(self, toy_model_file, tmp_path, capsys):
        bad = tmp_path / "ghost.json"
        bad.write_text('["ghost"]')
        assert main(
            ["simulate", "--model", str(toy_model_file), "--deployment", str(bad)]
        ) == 2


class TestExportCasestudy:
    def test_round_trips(self, tmp_path, capsys):
        path = tmp_path / "cs.json"
        assert main(["export-casestudy", str(path)]) == 0
        model = load_model(path)
        assert model.name == "enterprise-web-service"


class TestContrib:
    def test_contribution_report(self, toy_model_file, tmp_path, capsys):
        dep = tmp_path / "dep.json"
        main(["optimize", "--model", str(toy_model_file), "--budget-fraction", "1.0",
              "--out", str(dep)])
        capsys.readouterr()
        code = main(
            [
                "contrib",
                "--model", str(toy_model_file),
                "--deployment", str(dep),
                "--samples", "50",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Monitor contributions" in out
        assert "shapley" in out


class TestGaps:
    def test_gap_report(self, toy_model_file, tmp_path, capsys):
        dep = tmp_path / "dep.json"
        dep.write_text('["mnet@n1"]')
        code = main(
            [
                "gaps",
                "--model", str(toy_model_file),
                "--deployment", str(dep),
                "--threshold", "0.9",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Coverage gaps" in out
        assert "e3" in out

    def test_no_gaps_message(self, toy_model_file, tmp_path, capsys):
        dep = tmp_path / "dep.json"
        model = load_model(toy_model_file)
        import json as _json

        dep.write_text(_json.dumps(sorted(model.monitors)))
        assert main(
            ["gaps", "--model", str(toy_model_file), "--deployment", str(dep)]
        ) == 0
        assert "no gaps" in capsys.readouterr().out.lower()


class TestHtmlOutput:
    def test_optimize_writes_html(self, toy_model_file, tmp_path, capsys):
        html_path = tmp_path / "report.html"
        assert main(
            [
                "optimize",
                "--model", str(toy_model_file),
                "--budget-fraction", "0.5",
                "--html", str(html_path),
            ]
        ) == 0
        content = html_path.read_text()
        assert content.startswith("<!DOCTYPE html>")
        assert "Per-attack assessment" in content


class TestFrontier:
    def test_frontier_table_and_csv(self, toy_model_file, tmp_path, capsys):
        csv_path = tmp_path / "frontier.csv"
        assert main(
            ["frontier", "--model", str(toy_model_file), "--csv", str(csv_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out
        assert csv_path.read_text().startswith("scalar_cost")

    def test_max_points(self, toy_model_file, capsys):
        assert main(
            ["frontier", "--model", str(toy_model_file), "--max-points", "2"]
        ) == 0


class TestCompare:
    def test_compare_two_deployments(self, toy_model_file, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text('["mnet@n1"]')
        b.write_text('["mlog@h1", "mdb@h2"]')
        assert main(
            ["compare", "--model", str(toy_model_file), "--a", str(a), "--b", str(b)]
        ) == 0
        out = capsys.readouterr().out
        assert "Deployment comparison" in out
        assert "+ mdb@h2" in out
        assert "- mnet@n1" in out

    def test_unknown_monitor_fails_cleanly(self, toy_model_file, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text('["ghost"]')
        b.write_text('[]')
        assert main(
            ["compare", "--model", str(toy_model_file), "--a", str(a), "--b", str(b)]
        ) == 2


class TestSolverFlags:
    """--presolve / --max-nodes / --gap on every solving command."""

    def test_presolve_optimize_matches_cold(self, toy_model_file, tmp_path, capsys):
        cold_out = tmp_path / "cold.json"
        warm_out = tmp_path / "warm.json"
        base = ["optimize", "--model", str(toy_model_file), "--budget-fraction", "0.5"]
        assert main(base + ["--out", str(cold_out)]) == 0
        assert main(base + ["--presolve", "--out", str(warm_out)]) == 0
        assert json.loads(cold_out.read_text()) == json.loads(warm_out.read_text())

    def test_no_presolve_is_accepted(self, toy_model_file, capsys):
        assert main(
            [
                "optimize",
                "--model", str(toy_model_file),
                "--budget-fraction", "0.5",
                "--no-presolve",
            ]
        ) == 0

    def test_node_and_gap_controls(self, toy_model_file, capsys):
        assert main(
            [
                "optimize",
                "--model", str(toy_model_file),
                "--budget-fraction", "0.5",
                "--backend", "branch-and-bound",
                "--max-nodes", "100000",
                "--gap", "1e-9",
            ]
        ) == 0
        assert "optimal" in capsys.readouterr().out

    def test_mincost_presolve(self, toy_model_file, capsys):
        assert main(
            [
                "mincost",
                "--model", str(toy_model_file),
                "--min-utility", "0.2",
                "--presolve",
            ]
        ) == 0

    def test_sweep_presolve_matches_cold(self, toy_model_file, capsys):
        args = ["sweep", "--model", str(toy_model_file), "--fractions", "0.2,0.5"]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert main(args + ["--presolve", "--workers", "1"]) == 0
        warm = capsys.readouterr().out
        assert warm == cold

    def test_frontier_backend_and_presolve(self, toy_model_file, capsys):
        assert main(["frontier", "--model", str(toy_model_file)]) == 0
        cold = capsys.readouterr().out
        assert main(
            [
                "frontier",
                "--model", str(toy_model_file),
                "--backend", "branch-and-bound",
                "--presolve",
            ]
        ) == 0
        warm = capsys.readouterr().out
        assert warm == cold

    def test_stats_renders_reduction_ratios(self, toy_model_file, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(
            [
                "sweep",
                "--model", str(toy_model_file),
                "--fractions", "0.2,0.5",
                "--presolve",
                "--workers", "1",
                "--trace", str(trace),
            ]
        ) == 0
        capsys.readouterr()
        assert main(["stats", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "presolve:" in out
        assert "removed" in out
