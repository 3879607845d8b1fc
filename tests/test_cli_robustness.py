"""CLI robustness: worker-count validation, resilience flags, fallback backend."""

from __future__ import annotations

import argparse
import json

import pytest

from repro.cli import _parse_policy, _positive_worker_count, build_parser, main
from repro.core import save_model
from repro.runtime import RetryPolicy, faults
from repro.runtime.faults import FaultPlan, FaultSpec


@pytest.fixture()
def toy_model_file(toy_model, tmp_path):
    path = tmp_path / "toy.json"
    save_model(toy_model, path)
    return path


class TestWorkerCountValidation:
    def test_accepts_positive_counts(self):
        assert _positive_worker_count("1") == 1
        assert _positive_worker_count("8") == 8

    @pytest.mark.parametrize("bad", ["0", "-3"])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(argparse.ArgumentTypeError, match=r">= 1 \(use 1 for serial\)"):
            _positive_worker_count(bad)

    def test_rejects_non_integers(self):
        with pytest.raises(argparse.ArgumentTypeError, match="must be an integer"):
            _positive_worker_count("two")

    @pytest.mark.parametrize("bad", ["0", "-1", "2.5"])
    def test_parser_fails_fast_before_any_work(self, toy_model_file, bad, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--model", str(toy_model_file), "--workers", bad])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestResilienceFlags:
    def _args(self, extra):
        return build_parser().parse_args(
            ["sweep", "--model", "unused.json"] + extra
        )

    def test_defaults_mean_no_policy(self):
        assert _parse_policy(self._args([])) is None

    def test_any_flag_builds_a_policy(self):
        policy = _parse_policy(
            self._args(["--timeout", "1.5", "--max-retries", "2", "--on-failure", "skip"])
        )
        assert isinstance(policy, RetryPolicy)
        assert policy.timeout == 1.5
        assert policy.max_retries == 2
        assert policy.on_failure == "skip"

    def test_single_flag_is_enough(self):
        policy = _parse_policy(self._args(["--max-retries", "1"]))
        assert policy is not None
        assert policy.timeout is None
        assert policy.on_failure == "raise"

    def test_invalid_failure_mode_is_rejected_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["sweep", "--model", "x.json", "--on-failure", "explode"]
            )
        assert excinfo.value.code == 2
        assert "--on-failure" in capsys.readouterr().err


class TestFallbackBackendEndToEnd:
    def test_optimize_with_fallback_backend(self, toy_model_file, capsys):
        assert main(
            ["optimize", "--model", str(toy_model_file),
             "--budget-fraction", "0.5", "--backend", "fallback"]
        ) == 0
        assert "utility" in capsys.readouterr().out

    def test_optimize_fallback_rescues_with_greedy_when_every_backend_fails(
        self, toy_model_file, tmp_path, capsys
    ):
        down = FaultSpec(kind="error", times=-1)
        plan = FaultPlan.of(tmp_path, {"solver.scipy": down, "solver.branch-and-bound": down})
        with faults.inject(plan):
            assert main(
                ["optimize", "--model", str(toy_model_file),
                 "--budget-fraction", "0.5", "--backend", "fallback"]
            ) == 0
        assert capsys.readouterr().out.startswith("greedy-fallback:")

    def test_greedy_rescue_reports_each_backend_failure_and_is_marked(
        self, toy_model_file, tmp_path, capsys
    ):
        down = FaultSpec(kind="error", times=-1)
        plan = FaultPlan.of(tmp_path, {"solver.scipy": down, "solver.branch-and-bound": down})
        with faults.inject(plan):
            assert main(
                ["optimize", "--model", str(toy_model_file),
                 "--budget-fraction", "0.5", "--backend", "fallback"]
            ) == 0
            optimize_err = capsys.readouterr().err
            assert main(
                ["sweep", "--model", str(toy_model_file), "--workers", "1",
                 "--fractions", "0.2,0.5", "--backend", "fallback"]
            ) == 0
            sweep = capsys.readouterr()
        for backend in ("scipy", "branch-and-bound"):
            assert f"warning: exact backend failed: {backend}: " in optimize_err
            for fraction in ("0.2", "0.5"):
                assert (
                    f"warning: budget fraction {fraction}: exact backend failed: {backend}: "
                    in sweep.err
                )
        rows = [line for line in sweep.out.splitlines() if line.lstrip().startswith("0.")]
        assert len(rows) == 2 and all(row.endswith("heuristic") for row in rows)
        assert "non-dominated" not in sweep.out

    def test_optimize_timeout_flag_is_accepted(self, toy_model_file, capsys):
        assert main(
            ["optimize", "--model", str(toy_model_file),
             "--budget-fraction", "0.5", "--timeout", "30"]
        ) == 0

    def test_mincost_with_fallback_backend(self, toy_model_file, capsys):
        assert main(
            ["mincost", "--model", str(toy_model_file),
             "--min-utility", "0.3", "--backend", "fallback", "--timeout", "30"]
        ) == 0

    def test_sweep_with_resilience_flags(self, toy_model_file, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(
            ["sweep", "--model", str(toy_model_file),
             "--fractions", "0.2,0.5", "--backend", "fallback",
             "--workers", "1", "--max-retries", "1", "--csv", str(out)]
        ) == 0
        assert out.exists()

    def test_optimize_fallback_writes_strict_deployment_json(
        self, toy_model_file, tmp_path, capsys
    ):
        out = tmp_path / "deploy.json"
        assert main(
            ["optimize", "--model", str(toy_model_file),
             "--budget-fraction", "0.5", "--backend", "fallback",
             "--out", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert isinstance(payload, list) and payload
        assert all(isinstance(monitor_id, str) for monitor_id in payload)
