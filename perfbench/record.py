"""Regenerate ``expected.json``, the answers the pinned workloads must match.

Run from the repository root only when a change is *meant* to alter an
answer (and say so in its description)::

    PYTHONPATH=src python3 perfbench/record.py

``catalog_exact`` and ``sweep_bb_warm`` run pinned instances, so their
answers are recorded here.  ``service_mix`` sends the same requests in
every run of a given length, so the digest of each one's direct answer
is recorded for the benchmark's ``run_seconds`` (full scale) and for the
one-second runs of the benchmark's tests (tiny scale).
``contrib_parallel`` takes its Shapley samples from ``--seed`` and is
checked against oracles at run time instead.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import catalog_exact  # noqa: E402
import service_mix  # noqa: E402
import sweep_bb_warm  # noqa: E402


def main() -> None:
    run_seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    pins: dict = {catalog_exact.NAME: {}, sweep_bb_warm.NAME: {}, service_mix.NAME: {}}
    for scale, seconds in (("tiny", 1.0), ("full", run_seconds)):
        pins[service_mix.NAME][scale] = {
            "digests": service_mix.reference_digests(scale, seconds),
        }
        state = catalog_exact.setup(0, scale)
        result = catalog_exact.job(state)
        pins[catalog_exact.NAME][scale] = {
            "deployment_digest": catalog_exact.deployment_digest(result),
            "objective": result.objective,
        }
        state = sweep_bb_warm.setup(0, scale)
        pins[sweep_bb_warm.NAME][scale] = {
            "points": [sweep_bb_warm.point_record(p) for p in sweep_bb_warm.job(state)],
        }
    (HERE / "expected.json").write_text(json.dumps(pins, indent=2) + "\n")


if __name__ == "__main__":
    main()
