"""Shared fixtures and helpers for the experiment benchmarks.

Every file in this directory regenerates one table (T*) or figure (F*)
of the reconstructed evaluation suite (see DESIGN.md) and prints the
rows the paper-style experiment reports.  Run with::

    pytest benchmarks/ --benchmark-only

Printed output appears in the captured-output section of failing tests
or with ``-s``; every experiment also appends its rendered table to
``benchmarks/results/<experiment>.txt`` so EXPERIMENTS.md can quote it.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.casestudy import enterprise_web_service

RESULTS_DIR = Path(__file__).parent / "results"

#: Whether this session selected every benchmark in this directory;
#: only such a run may overwrite ``results/registry_snapshot.json``.
_SELECTED_EVERY_TEST = pytest.StashKey[bool]()


def pytest_deselected(items):
    """``-k``, ``-m``, ``--deselect`` and ``--lf`` all report here."""
    if items:
        items[0].config.stash[_SELECTED_EVERY_TEST] = False


def pytest_collection_finish(session):
    config = session.config
    if not config.stash.get(_SELECTED_EVERY_TEST, True):
        return
    collected = {Path(str(item.path)) for item in session.items}
    every_file = set(Path(__file__).parent.glob("test_*.py"))
    config.stash[_SELECTED_EVERY_TEST] = collected == every_file and not any(
        "::" in arg for arg in config.args
    )


@pytest.fixture(scope="session")
def web_model():
    """The enterprise Web service case study (shared across benches)."""
    return enterprise_web_service()


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def publish(results_dir: Path, experiment: str, text: str) -> None:
    """Print an experiment's output and persist it under results/."""
    banner = f"\n=== {experiment} ===\n"
    print(banner + text)
    (results_dir / f"{experiment}.txt").write_text(text + "\n")


def publish_json(results_dir: Path, experiment: str, payload: dict) -> None:
    """Persist an experiment's machine-readable results under results/.

    Written alongside the rendered ``.txt`` table so wall-clock series
    can be diffed/plotted across runs without re-parsing tables.
    """
    path = results_dir / f"{experiment}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="session", autouse=True)
def registry_snapshot(request):
    """Persist the ambient metrics registry after the benchmark session.

    Every solver/engine/cache/simulation call in the session increments
    the ambient registry; dumping it once at teardown gives a free
    aggregate view (solve-time histograms, cache hit rates, node
    counts) next to the per-experiment JSON.  ``repro stats
    benchmarks/results/registry_snapshot.json`` renders it.  A session
    that selected only some benchmarks leaves the file as it was: its
    counters would describe that selection, not the suite.
    """
    from repro import obs

    obs.registry().reset()
    yield
    if not request.config.stash.get(_SELECTED_EVERY_TEST, False):
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "registry_snapshot.json"
    path.write_text(json.dumps(obs.registry().snapshot(), indent=2, sort_keys=True) + "\n")
