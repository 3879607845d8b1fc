"""Run one perfbench workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload catalog_exact --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records provenance.  HiGHS writes progress text to file descriptor 1
from C, so the program's descriptor 1 is pointed at standard error for
the whole run and only the two result lines reach standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: ``setup_s`` is the median of this many set-ups, each in a fresh
#: interpreter.
SETUPS = 3


def _commit() -> str | None:
    """The checked-out commit, or None outside a git checkout."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    """Digest of every Python file under ``src/`` (identifies the code without git)."""
    h = hashlib.blake2b(digest_size=16)
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args: argparse.Namespace, trace_overhead: float | None) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "commit": _commit(),
        "source_digest": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "trace_overhead_s": trace_overhead,
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in workloads])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="input size; 'tiny' is for the benchmark's own tests",
    )
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set the workload up once and exit (how setup_s is timed)",
    )
    return parser.parse_args(argv)


def setup_seconds(args: argparse.Namespace) -> float:
    """Median wall time of fresh interpreters that import, set up and exit.

    This is the time from the start of a run to its first timed
    operation, imports included, so work moved into import or set-up
    shows here.
    """
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
        "--scale", args.scale, "--setup-only",
    ]
    walls = []
    for _ in range(SETUPS):
        began = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - began)
    return statistics.median(walls)


def execute(args: argparse.Namespace) -> tuple[dict, dict]:
    """Set up, run and check one workload; returns (provenance, result)."""
    import common

    module = importlib.import_module(args.workload)
    teardown = getattr(module, "teardown", lambda state: None)
    state = module.setup(args.seed, args.scale)
    try:
        outcome = (module.trace if args.trace else module.measure)(state, args.seconds)
    finally:
        teardown(state)

    if args.trace:
        names = common.declared_metrics("per_layer")
        values = {name: 0.0 for name in names}
        values.update(outcome.metrics)
    else:
        names = common.declared_metrics("end_to_end")
        values = dict(outcome.metrics)
        values["setup_s"] = setup_seconds(args)
        values["success_ratio"] = (outcome.attempted - outcome.failed) / outcome.attempted
        values["peak_rss_mb"] = common.peak_rss_mb()
    unknown = set(values) - set(names)
    if unknown:
        raise RuntimeError(f"workload emitted undeclared metrics: {sorted(unknown)}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit} for name, unit in names.items()
        },
    }
    record = provenance(args, values.get("trace_overhead_s"))
    record.update(outcome.notes)
    return record, result


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        module = importlib.import_module(args.workload)
        getattr(module, "teardown", lambda state: None)(module.setup(args.seed, args.scale))
        return 0
    # Native solver chatter goes to descriptor 1; keep the real standard
    # output aside for the result lines and send everything else to
    # standard error.
    sys.stdout.flush()
    result_fd = os.dup(1)
    os.dup2(2, 1)
    record, result = execute(args)
    sys.stdout.flush()
    os.write(result_fd, (json.dumps({"provenance": record}) + "\n").encode())
    os.write(result_fd, (json.dumps(result, allow_nan=False) + "\n").encode())
    os.close(result_fd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
