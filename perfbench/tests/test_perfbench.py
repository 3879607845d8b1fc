"""Tests for the benchmark itself, at tiny scale.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import catalog_exact
import common
import contrib_parallel
import service_mix
import sweep_bb_warm
from repro.optimize.deployment import Deployment

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
COUNTS = ("solver.bb_nodes", "solver.lp_solves", "runtime.pool_tasks", "runtime.engine_builds")


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, str(cwd / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "5", "--seconds", "1",
            "--trace", str(trace), "--scale", "tiny",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@functools.cache
def result_of(workload: str, trace: int) -> dict:
    """The parsed result line of one tiny run (cached per session)."""
    done = run_benchmark(workload, trace)
    assert done.returncode == 0, done.stderr[-3000:]
    lines = done.stdout.splitlines()
    assert len(lines) == 2, done.stdout
    assert json.loads(lines[0])["provenance"]["workload"] == workload
    return json.loads(lines[1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = result_of(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = common.declared_metrics("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["sweep_bb_warm", "contrib_parallel"])
def test_counts_repeat_exactly_across_runs(workload):
    first = result_of(workload, 1)["metrics"]
    done = run_benchmark(workload, 1)
    assert done.returncode == 0, done.stderr[-3000:]
    second = json.loads(done.stdout.splitlines()[-1])["metrics"]
    for name in COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_counts_match_the_layers_each_workload_reaches():
    sweep = result_of("sweep_bb_warm", 1)["metrics"]
    contrib = result_of("contrib_parallel", 1)["metrics"]
    assert sweep["solver.bb_nodes"]["value"] > 0 and sweep["solver.lp_solves"]["value"] > 0
    assert contrib["runtime.pool_tasks"]["value"] > 0
    assert contrib["runtime.engine_builds"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark("catalog_exact", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


# ----------------------------------------------------------------------
# tampered answers are counted as failed operations
# ----------------------------------------------------------------------


def _tampered_once(monkeypatch, module, tamper):
    """Make the workload's first job return a tampered answer."""
    original = module.job
    calls = []

    def job(state):
        answer = original(state)
        calls.append(answer)
        return tamper(state, answer) if len(calls) == 1 else answer

    monkeypatch.setattr(module, "job", job)


def test_tampered_catalog_deployment_fails(monkeypatch):
    def drop_one(state, result):
        kept = sorted(result.deployment.monitor_ids)[1:]
        return dataclasses.replace(result, deployment=Deployment.of(state.model, kept))

    _tampered_once(monkeypatch, catalog_exact, drop_one)
    outcome = catalog_exact.measure(catalog_exact.setup(5, "tiny"), 0.0)
    assert outcome.failed == 1 and outcome.attempted >= 2


def test_tampered_sweep_point_fails(monkeypatch):
    def nudge(state, points):
        first = points[0]
        result = dataclasses.replace(first.result, objective=first.result.objective + 1e-12)
        return [dataclasses.replace(first, result=result)] + points[1:]

    _tampered_once(monkeypatch, sweep_bb_warm, nudge)
    state = sweep_bb_warm.setup(5, "tiny")
    outcome = sweep_bb_warm.measure(state, 0.0)
    assert outcome.failed == 1
    assert outcome.attempted >= 2 * len(state.fractions)


def test_tampered_contribution_report_fails(monkeypatch):
    def change_a_digit(state, answer):
        text, report = answer
        lines = text.splitlines()
        cells = lines[3].split()  # the first table row
        cells[2] = f"{float(cells[2]) + 0.001:.4f}"  # its leave-one-out value
        lines[3] = "  ".join(cells)
        return "\n".join(lines), report

    _tampered_once(monkeypatch, contrib_parallel, change_a_digit)
    state = contrib_parallel.setup(5, "tiny")
    outcome = contrib_parallel.measure(state, 0.0)
    assert outcome.failed == state.tasks


def test_tampered_service_reply_fails(monkeypatch):
    original = service_mix.collate

    def collate(exchange):
        replies = original(exchange)
        target = next(r for r in replies if r.ok and r.request["kind"] == "max-utility")
        target.result["value"]["objective"] += 1e-6
        return replies

    monkeypatch.setattr(service_mix, "collate", collate)
    state = service_mix.setup(5, "tiny")
    try:
        outcome = service_mix.measure(state, 1.0)
    finally:
        service_mix.teardown(state)
    assert outcome.failed >= 1
    assert outcome.attempted > outcome.failed
