"""Command-line interface: the methodology without writing Python.

``python -m repro <command>`` drives the full pipeline on model JSON
files (or the built-in case study):

* ``info`` — model statistics and audit summary;
* ``audit`` — every semantic finding;
* ``optimize`` — max-utility deployment under a budget;
* ``mincost`` — cheapest deployment meeting requirements;
* ``sweep`` — utility vs. budget curve (optionally CSV);
* ``simulate`` — attack campaign against a deployment;
* ``stats`` — render the metrics carried by a ``--trace`` file;
* ``export-casestudy`` — write the built-in case study to JSON.

Every command accepts either ``--model path/to/model.json`` or
``--casestudy`` (the enterprise Web service).  Deployments are
exchanged as JSON lists of monitor ids.

The work-running commands also accept ``--trace out.json``: the whole
command executes under :func:`repro.obs.capture` and writes one
combined file — a Chrome trace (open it at https://ui.perfetto.dev)
that also carries the run's metrics registry, which ``repro stats
out.json`` renders as tables.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from collections.abc import Iterator
from pathlib import Path
from typing import TextIO

from repro import obs
from repro.analysis.evaluation import evaluate_deployment
from repro.analysis.tables import render_table
from repro.casestudy import enterprise_web_service
from repro.core.model import SystemModel
from repro.core.serialization import load_model, save_model
from repro.core.validation import audit_model
from repro.errors import ReproError
from repro.export.csv_export import sweep_to_csv
from repro.export.dot import deployment_to_dot
from repro.export.jsonsafe import dumps as strict_dumps
from repro.metrics.cost import Budget
from repro.metrics.utility import UtilityWeights
from repro.obs import load_trace, write_trace
from repro.runtime.cache import cached_utility
from repro.optimize.deployment import Deployment, OptimizationResult
from repro.optimize.pareto import budget_sweep, pareto_frontier
from repro.optimize.problem import MaxUtilityProblem, MinCostProblem
from repro.runtime.pool import PersistentPool, resolve_workers, use_pool
from repro.runtime.resilience import FAILURE_MODES, MapReport, RetryPolicy
from repro.simulation.campaign import run_campaign
from repro.solver import BACKENDS

__all__ = ["main", "build_parser"]


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", type=Path, help="model JSON file")
    source.add_argument(
        "--casestudy",
        action="store_true",
        help="use the built-in enterprise Web service case study",
    )


def _add_weight_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--weights",
        default=None,
        metavar="COV,RED,RICH",
        help="utility weights, three comma-separated numbers summing to 1 "
        "(default 0.6,0.25,0.15)",
    )


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="OUT.json",
        help="capture the run's spans and metrics into a Chrome-trace JSON "
        "file (view at ui.perfetto.dev; inspect with `repro stats`)",
    )


def _add_solver_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags shared by every command that runs exact MILP solves."""
    parser.add_argument(
        "--presolve",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="run the exact reduction pipeline before solving (and, on "
        "serial sweeps/frontiers, warm-start consecutive solves from "
        "each other); answers stay provably optimal — when ties exist "
        "among equally-optimal deployments, a reduced model may break "
        "them differently",
    )
    parser.add_argument(
        "--max-nodes",
        type=int,
        default=None,
        metavar="N",
        help="branch-and-bound node cap; when hit, the best incumbent is "
        "reported with optimal=no instead of erroring",
    )
    parser.add_argument(
        "--gap",
        type=float,
        default=None,
        metavar="REL",
        help="relative optimality gap at which an incumbent is accepted "
        "as optimal (default: prove optimality exactly)",
    )
    parser.add_argument(
        "--bb-workers",
        type=_positive_worker_count,
        default=None,
        metavar="N",
        help="fan branch-and-bound subtree search out across N workers "
        "(N > 1 answers as parallel-bb); objectives, deployments and "
        "node counts are bit-identical at any N > 1",
    )


def _positive_worker_count(text: str) -> int:
    """argparse type for worker counts: a strictly positive integer.

    Fails fast at parse time — a zero or negative count would otherwise
    surface as an opaque ProcessPoolExecutor error mid-run.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"worker count must be an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"worker count must be >= 1 (use 1 for serial), got {value}"
        )
    return value


def _add_workers_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=_positive_worker_count,
        default=None,
        metavar="N",
        help="process-pool workers for independent sub-tasks, >= 1 "
        "(default: the REPRO_WORKERS environment variable, else serial); "
        "results are identical at any worker count",
    )


def _command_pool(args: argparse.Namespace) -> contextlib.ExitStack:
    """Context manager installing one pool for the command's parallel maps.

    Every command that maps holds one (``sweep``, ``contrib``, and the
    solves that take ``--bb-workers``).  It is sized for the widest map
    the command runs in this process: the ``--workers`` fan-out or,
    when that is serial, each solve's ``--bb-workers`` subtree search.
    The executor starts on first use, so a serial command never forks;
    the pool is closed *and* uninstalled on exit, so no worker process
    outlives the command.
    """
    workers = resolve_workers(getattr(args, "workers", None))
    if workers == 1:
        workers = getattr(args, "bb_workers", None) or 1
    stack = contextlib.ExitStack()
    pool = stack.enter_context(PersistentPool(workers))
    stack.enter_context(use_pool(pool))
    return stack


def _add_resilience_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-task wall-clock budget for parallel sub-tasks "
        "(enforced on the process-pool path only)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=0,
        metavar="N",
        help="extra attempts per failed sub-task, with deterministic "
        "exponential backoff (default 0)",
    )
    parser.add_argument(
        "--on-failure",
        default="raise",
        choices=list(FAILURE_MODES),
        help="what to do when a sub-task exhausts its attempts: re-raise "
        "(default), degrade to a serial attempt, or skip the task",
    )


def _parse_policy(args: argparse.Namespace) -> RetryPolicy | None:
    """The RetryPolicy implied by the resilience flags (None if defaults)."""
    if args.timeout is None and args.max_retries == 0 and args.on_failure == "raise":
        return None
    return RetryPolicy(
        timeout=args.timeout,
        max_retries=args.max_retries,
        on_failure=args.on_failure,
    )


def _print_report(report: MapReport) -> None:
    """Surface a non-clean MapReport on stderr (never silently)."""
    if report.clean:
        return
    parts = []
    if report.retries:
        parts.append(f"{report.retries} retried attempt(s)")
    if report.timeouts:
        parts.append(f"{report.timeouts} timeout(s)")
    if report.skipped:
        parts.append(f"{len(report.skipped)} task(s) skipped")
    if report.degraded:
        parts.append(f"degraded to serial ({report.degraded_reason})")
    print("warning: " + "; ".join(parts), file=sys.stderr)
    for failure in report.failures:
        print(
            f"warning: task {failure.index} [{failure.stage}] failed after "
            f"{failure.attempts} attempt(s): {failure.error_type}: {failure.message}",
            file=sys.stderr,
        )


def _print_failures(result: OptimizationResult, where: str = "") -> None:
    """Surface why no exact backend answered a greedy rescue, on stderr."""
    for failure in result.failures:
        print(f"warning: {where}exact backend failed: {failure}", file=sys.stderr)


def _load_model(args: argparse.Namespace) -> SystemModel:
    if args.casestudy:
        return enterprise_web_service()
    return load_model(args.model)


def _parse_weights(args: argparse.Namespace) -> UtilityWeights:
    if getattr(args, "weights", None) is None:
        return UtilityWeights()
    parts = [float(x) for x in args.weights.split(",")]
    if len(parts) != 3:
        raise ReproError(f"--weights needs exactly three numbers, got {args.weights!r}")
    return UtilityWeights(coverage=parts[0], redundancy=parts[1], richness=parts[2])


def _parse_budget(model: SystemModel, args: argparse.Namespace) -> Budget:
    if args.budget_fraction is not None:
        return Budget.fraction_of_total(model, args.budget_fraction)
    if args.budget:
        limits = {}
        for item in args.budget.split(","):
            dimension, _, value = item.partition("=")
            if not value:
                raise ReproError(f"budget entries look like dim=limit, got {item!r}")
            limits[dimension.strip()] = float(value)
        return Budget(limits)
    raise ReproError("specify --budget-fraction or --budget")


def _add_budget_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--budget-fraction",
        type=float,
        default=None,
        help="budget as a fraction of the all-monitors cost",
    )
    parser.add_argument(
        "--budget",
        default=None,
        metavar="DIM=LIMIT,...",
        help='explicit per-dimension limits, e.g. "cpu=40,storage=20"',
    )


def _write_deployment(deployment: Deployment, path: Path) -> None:
    path.write_text(strict_dumps(sorted(deployment.monitor_ids), indent=2) + "\n")


def _read_deployment(model: SystemModel, path: Path) -> Deployment:
    monitor_ids = json.loads(path.read_text())
    if not isinstance(monitor_ids, list):
        raise ReproError(f"{path} must contain a JSON list of monitor ids")
    return Deployment.of(model, monitor_ids)


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------


def _cmd_info(args: argparse.Namespace) -> int:
    model = _load_model(args)
    print(model)
    print(render_table(["entity", "count"], sorted(model.stats().items()), title="Entities"))
    print()
    total = model.total_cost()
    print(render_table(["dimension", "total cost"], sorted(total.as_dict().items()),
                       title="Cost of deploying everything"))
    findings = audit_model(model)
    warnings = sum(1 for f in findings if f.severity.value == "warning")
    print(f"\nAudit: {len(findings)} findings ({warnings} warnings); run `audit` for details")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    model = _load_model(args)
    findings = audit_model(model)
    if not findings:
        print("no findings — model is semantically clean")
        return 0
    for finding in findings:
        print(finding)
    warnings = sum(1 for f in findings if f.severity.value == "warning")
    return 1 if warnings and args.strict else 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    model = _load_model(args)
    weights = _parse_weights(args)
    budget = _parse_budget(model, args)
    with _command_pool(args):
        result = MaxUtilityProblem(model, budget, weights).solve(
            args.backend,
            time_limit=args.timeout,
            presolve=args.presolve,
            max_nodes=args.max_nodes,
            gap=args.gap,
            bb_workers=args.bb_workers,
        )
    _print_failures(result)
    print(result.summary())
    report = evaluate_deployment(model, result.deployment, weights)
    print()
    print(report.to_text())
    if args.out:
        _write_deployment(result.deployment, args.out)
        print(f"\ndeployment written to {args.out}")
    if args.dot:
        args.dot.write_text(deployment_to_dot(result.deployment))
        print(f"DOT graph written to {args.dot}")
    if args.html:
        from repro.export.html import report_to_html

        args.html.write_text(report_to_html(report))
        print(f"HTML report written to {args.html}")
    return 0


def _cmd_mincost(args: argparse.Namespace) -> int:
    model = _load_model(args)
    weights = _parse_weights(args)
    problem = MinCostProblem(
        model,
        min_utility=args.min_utility,
        fully_cover=args.fully_cover.split(",") if args.fully_cover else (),
        weights=weights,
    )
    with _command_pool(args):
        result = problem.solve(
            args.backend,
            time_limit=args.timeout,
            presolve=args.presolve,
            max_nodes=args.max_nodes,
            gap=args.gap,
            bb_workers=args.bb_workers,
        )
    print(result.summary())
    print(f"scalar cost: {result.objective:.2f}")
    print(f"spend: {result.deployment.cost().as_dict()}")
    for monitor_id in sorted(result.monitor_ids):
        print(f"  {monitor_id}")
    if args.out:
        _write_deployment(result.deployment, args.out)
        print(f"deployment written to {args.out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    model = _load_model(args)
    weights = _parse_weights(args)
    fractions = [float(x) for x in args.fractions.split(",")]
    report = MapReport()
    with _command_pool(args):
        points = budget_sweep(
            model,
            fractions,
            weights,
            backend=args.backend,
            # Resolved here: the pool may be wider than the sweep itself.
            workers=resolve_workers(args.workers),
            policy=_parse_policy(args),
            report=report,
            presolve=args.presolve,
            max_nodes=args.max_nodes,
            gap=args.gap,
            bb_workers=args.bb_workers,
        )
    _print_report(report)
    for p in points:
        _print_failures(p.result, f"budget fraction {p.fraction}: ")
    headers = ["budget fraction", "#monitors", "utility", "scalar cost"]
    rows = [
        [p.fraction, len(p.result.deployment), p.result.utility, p.scalar_cost]
        for p in points
    ]
    # Points no exact backend proved optimal are marked, and left out of
    # the non-dominated count below: a heuristic point proves nothing.
    exact = [p for p in points if p.result.optimal]
    if len(exact) < len(points):
        headers.append("answer")
        for row, p in zip(rows, points):
            row.append("exact" if p.result.optimal else "heuristic")
    print(render_table(headers, rows, title="Utility vs. budget"))
    # Non-dominated summary; evaluations route through the shared
    # per-model cache, so the knee re-lookup below is a guaranteed hit.
    frontier = pareto_frontier([p.result.deployment for p in exact], weights)
    if frontier:
        knee_cost, knee_utility, knee = frontier[-1]
        knee_utility = cached_utility(model, knee.monitor_ids, weights)
        left_out = len(points) - len(exact)
        print(
            f"\n{len(frontier)}/{len(exact)} points are non-dominated"
            + (f" ({left_out} heuristic point(s) left out)" if left_out else "")
            + f"; best utility {knee_utility:.4f} at scalar cost {knee_cost:.2f}"
        )
    if args.csv:
        args.csv.write_text(sweep_to_csv(points))
        print(f"\nCSV written to {args.csv}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    model = _load_model(args)
    deployment = _read_deployment(model, args.deployment)
    campaign = run_campaign(
        model,
        deployment,
        repetitions=args.repetitions,
        seed=args.seed,
        monitor_failure_rate=args.failure_rate,
    )
    print(render_table(
        ["campaign metric", "value"],
        [
            ["runs", len(campaign.runs)],
            ["detection rate", campaign.detection_rate],
            ["mean detection latency (s)", campaign.mean_detection_latency],
            ["step completeness", campaign.mean_step_completeness],
            ["field completeness", campaign.mean_field_completeness],
            ["observations", campaign.observations],
        ],
        title=f"Campaign ({args.repetitions} runs/attack, seed {args.seed}, "
        f"failure rate {args.failure_rate})",
    ))
    missed = sorted(
        attack_id for attack_id, rate in campaign.per_attack_detection.items() if rate < 0.5
    )
    if missed:
        print("\nattacks detected in <50% of runs:")
        for attack_id in missed:
            print(f"  {attack_id} ({campaign.per_attack_detection[attack_id]:.0%})")
    return 0


def _cmd_contrib(args: argparse.Namespace) -> int:
    from repro.analysis.contribution import contribution_report

    model = _load_model(args)
    deployment = _read_deployment(model, args.deployment)
    weights = _parse_weights(args)
    report = MapReport()
    with _command_pool(args):
        print(
            contribution_report(
                model,
                deployment,
                weights,
                shapley_samples=args.samples,
                seed=args.seed,
                workers=args.workers,
                policy=_parse_policy(args),
                report=report,
            )
        )
    _print_report(report)
    return 0


def _cmd_frontier(args: argparse.Namespace) -> int:
    from repro.optimize.frontier import exact_frontier

    model = _load_model(args)
    weights = _parse_weights(args)
    with _command_pool(args):
        points = exact_frontier(
            model,
            weights,
            backend=args.backend,
            max_points=args.max_points,
            presolve=args.presolve,
            max_nodes=args.max_nodes,
            gap=args.gap,
            bb_workers=args.bb_workers,
        )
    print(render_table(
        ["scalar cost", "utility", "#monitors"],
        [[p.scalar_cost, p.utility, len(p.deployment)] for p in points],
        title=f"Exact cost-utility Pareto frontier ({len(points)} points)",
    ))
    if args.csv:
        import csv as _csv
        import io as _io

        buffer = _io.StringIO()
        writer = _csv.writer(buffer, lineterminator="\n")
        writer.writerow(["scalar_cost", "utility", "monitors"])
        for p in points:
            writer.writerow([p.scalar_cost, p.utility, len(p.deployment)])
        args.csv.write_text(buffer.getvalue())
        print(f"\nCSV written to {args.csv}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.comparison import compare_deployments

    model = _load_model(args)
    a = _read_deployment(model, args.a)
    b = _read_deployment(model, args.b)
    print(compare_deployments(a, b, _parse_weights(args)).to_text())
    return 0


def _cmd_gaps(args: argparse.Namespace) -> int:
    from repro.analysis.gaps import gap_report

    model = _load_model(args)
    deployment = _read_deployment(model, args.deployment)
    print(gap_report(model, deployment, threshold=args.threshold))
    return 0


def _histogram_rows(state: dict) -> list[list[object]]:
    """Human-readable bucket rows of one histogram snapshot."""
    rows: list[list[object]] = []
    previous = None
    for bound, count in zip(state["bounds"], state["bucket_counts"]):
        label = f"<= {bound:g}" if previous is None else f"({previous:g}, {bound:g}]"
        rows.append([label, count])
        previous = bound
    rows.append([f"> {state['bounds'][-1]:g}", state["overflow"]])
    return rows


def _cmd_stats(args: argparse.Namespace) -> int:
    payload = load_trace(args.trace_file)
    # A combined trace file carries the registry under "metrics"; a bare
    # registry snapshot (benchmark artifact) is accepted as-is.
    metrics = payload.get("metrics", payload)
    counters = dict(metrics.get("counters", {}))
    gauges = dict(metrics.get("gauges", {}))
    histograms = dict(metrics.get("histograms", {}))

    events = payload.get("traceEvents")
    if events is not None:
        print(f"{len(events)} trace events in {args.trace_file}\n")

    if counters:
        print(render_table(
            ["counter", "total"],
            [[name, f"{value:g}"] for name, value in sorted(counters.items())],
            title="Counters",
        ))
    else:
        print("no counters recorded")

    hits = counters.get("cache.hits", 0.0)
    misses = counters.get("cache.misses", 0.0)
    lookups = hits + misses
    if lookups:
        print(
            f"\ncache hit rate: {hits / lookups:.1%} "
            f"({hits:g} hits / {lookups:g} lookups, "
            f"{counters.get('cache.evictions', 0.0):g} evictions)"
        )

    runs = counters.get("presolve.runs", 0.0)
    if runs:
        cols_before = counters.get("presolve.columns_before", 0.0)
        cols_after = counters.get("presolve.columns_after", 0.0)
        rows_before = counters.get("presolve.rows_before", 0.0)
        rows_after = counters.get("presolve.rows_after", 0.0)
        col_ratio = 1.0 - cols_after / cols_before if cols_before else 0.0
        row_ratio = 1.0 - rows_after / rows_before if rows_before else 0.0
        print(
            f"\npresolve: {runs:g} run(s); "
            f"columns {cols_before:g} -> {cols_after:g} ({col_ratio:.1%} removed), "
            f"rows {rows_before:g} -> {rows_after:g} ({row_ratio:.1%} removed)"
        )
        print(
            f"  {counters.get('presolve.forced_fixings', 0.0):g} forced fixing(s), "
            f"{counters.get('presolve.dominated_columns', 0.0):g} dominated column(s), "
            f"{counters.get('presolve.duplicate_rows', 0.0):g} duplicate row(s), "
            f"{counters.get('presolve.redundant_rows', 0.0):g} redundant row(s)"
        )
        seeds = counters.get("solver.session.incumbent_seeds", 0.0)
        accepted = counters.get("solver.warm_start.accepted", 0.0)
        bounds = counters.get("solver.session.bound_reuses", 0.0)
        if seeds or bounds:
            print(
                f"  warm starts: {seeds:g} seeded, {accepted:g} accepted; "
                f"{bounds:g} dual-bound reuse(s)"
            )

    sparse_bytes = gauges.get("solver.matrix.nbytes", 0.0)
    dense_bytes = gauges.get("solver.matrix.dense_nbytes", 0.0)
    if sparse_bytes and dense_bytes:
        saving = 1.0 - sparse_bytes / dense_bytes if dense_bytes else 0.0
        print(
            f"\nconstraint matrix: {sparse_bytes:,.0f} bytes sparse vs "
            f"{dense_bytes:,.0f} dense equivalent ({saving:.1%} saved)"
        )

    if gauges:
        print()
        print(render_table(
            ["gauge", "value"],
            [[name, f"{value:g}"] for name, value in sorted(gauges.items())],
            title="Gauges",
        ))

    for name, state in sorted(histograms.items()):
        if not state["count"]:
            continue
        mean = state["sum"] / state["count"]
        print()
        print(render_table(
            ["bucket", "count"],
            _histogram_rows(state),
            title=(
                f"{name}: n={state['count']}, mean={mean:g}, "
                f"min={state['min']:g}, max={state['max']:g}"
            ),
        ))
    return 0


def _cmd_export_casestudy(args: argparse.Namespace) -> int:
    save_model(enterprise_web_service(), args.path)
    print(f"case study written to {args.path}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Lazy: the lint driver is only needed by this subcommand, and the
    # linter must stay usable even when the analyzed code would not
    # import — parsing is its only contact with the target.
    if (args.baseline or args.write_baseline) and not args.deep:
        raise ReproError("--baseline/--write-baseline require --deep")
    if args.deep:
        from repro.devtools.lint import run_deep

        return run_deep(
            args.paths,
            format=args.format,
            output=args.output,
            baseline=args.baseline,
            write_baseline=args.write_baseline,
        )
    from repro.devtools.lint import run as run_lint

    return run_lint(args.paths, args.rule, args.format, args.output)


def _service_config(args: argparse.Namespace) -> "object":
    # Lazy: the asyncio service stack is only needed by serve/loadgen.
    from repro.service import ServiceConfig

    return ServiceConfig(
        workers=args.workers,
        queue_limit=args.queue_limit,
        max_retries=args.max_retries,
        presolve=args.presolve,
        cache_max_bytes=args.cache_bytes,
        cache_idle_ttl=args.cache_ttl,
    )


@contextlib.contextmanager
def _stdout_for_replies_only() -> Iterator[TextIO]:
    """A text stream on the original stdout, with file descriptor 1 on stderr.

    HiGHS prints progress lines from C straight to descriptor 1, which
    would interleave with protocol replies.  While the block runs,
    descriptor 1 (and so ``sys.stdout``) points at stderr and only the
    yielded stream, over a duplicate of the original descriptor 1,
    writes to stdout.  Descriptor 1 is restored on exit.
    """
    sys.stdout.flush()
    reply_fd = os.dup(1)
    os.dup2(2, 1)
    try:
        with open(reply_fd, "w", encoding="utf-8", closefd=False) as replies:
            yield replies
    finally:
        sys.stdout.flush()
        os.dup2(reply_fd, 1)
        os.close(reply_fd)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import SolveService
    from repro.service.protocol import serve_stdio, serve_unix_socket

    config = _service_config(args)

    async def _run(replies: TextIO | None) -> None:
        async with SolveService(config) as service:
            if replies is None:
                server = await serve_unix_socket(service, str(args.socket))
                print(f"serving on {args.socket}", file=sys.stderr)
                async with server:
                    await server.serve_forever()
            else:
                await serve_stdio(service, sys.stdin, replies)

    try:
        if args.socket is not None:
            asyncio.run(_run(None))
        else:
            with _stdout_for_replies_only() as replies:
                asyncio.run(_run(replies))
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.service import generate_load

    model = _load_model(args)
    report = generate_load(
        model,
        jobs=args.jobs,
        tenants=args.tenants,
        seed=args.seed,
        config=_service_config(args),
        warmup=args.warmup,
    )
    rows = [
        ("jobs", f"{report.jobs}"),
        ("completed / failed", f"{report.completed} / {report.failed}"),
        ("rejections (typed)", f"{report.rejections}"),
        ("cache / dedup answered", f"{report.cached} / {report.deduped}"),
        ("executed jobs", f"{report.executed_jobs}"),
        ("solve units delivered", f"{report.solve_units}"),
        ("wall seconds", f"{report.wall_seconds:.2f}"),
        ("jobs per minute", f"{report.jobs_per_minute:.0f}"),
        ("solves per minute", f"{report.solves_per_minute:.0f}"),
        ("latency p50 / p99 (s)", f"{report.p50_seconds:.4f} / {report.p99_seconds:.4f}"),
        ("warm hit rate", f"{report.hit_rate:.1%}"),
    ]
    width = max(len(label) for label, _ in rows)
    for label, value in rows:
        print(f"{label:<{width}}  {value}")
    if args.json is not None:
        args.json.write_text(strict_dumps(report.to_dict(), indent=2) + "\n")
        print(f"report written to {args.json}", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Quantitative security monitor deployment (DSN 2016 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    info = commands.add_parser("info", help="model statistics and audit summary")
    _add_model_arguments(info)
    info.set_defaults(handler=_cmd_info)

    audit = commands.add_parser("audit", help="semantic model audit")
    _add_model_arguments(audit)
    audit.add_argument("--strict", action="store_true",
                       help="exit nonzero when warnings are present")
    audit.set_defaults(handler=_cmd_audit)

    optimize = commands.add_parser("optimize", help="max-utility deployment under budget")
    _add_model_arguments(optimize)
    _add_weight_arguments(optimize)
    _add_budget_arguments(optimize)
    optimize.add_argument("--backend", default="scipy",
                          choices=BACKENDS)
    optimize.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                          help="solver wall-clock limit in seconds")
    _add_solver_arguments(optimize)
    optimize.add_argument("--out", type=Path, help="write deployment JSON here")
    optimize.add_argument("--dot", type=Path, help="write Graphviz DOT here")
    optimize.add_argument("--html", type=Path, help="write a self-contained HTML report here")
    _add_trace_argument(optimize)
    optimize.set_defaults(handler=_cmd_optimize)

    mincost = commands.add_parser("mincost", help="cheapest deployment meeting requirements")
    _add_model_arguments(mincost)
    _add_weight_arguments(mincost)
    mincost.add_argument("--min-utility", type=float, default=None)
    mincost.add_argument("--fully-cover", default=None,
                         metavar="ATTACK,...", help="attacks whose required steps must be covered")
    mincost.add_argument("--backend", default="scipy",
                         choices=BACKENDS)
    mincost.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                         help="solver wall-clock limit in seconds")
    _add_solver_arguments(mincost)
    mincost.add_argument("--out", type=Path, help="write deployment JSON here")
    _add_trace_argument(mincost)
    mincost.set_defaults(handler=_cmd_mincost)

    sweep = commands.add_parser("sweep", help="utility vs. budget curve")
    _add_model_arguments(sweep)
    _add_weight_arguments(sweep)
    sweep.add_argument("--fractions", default="0.05,0.1,0.2,0.4,0.8")
    sweep.add_argument("--backend", default="scipy",
                       choices=BACKENDS)
    _add_solver_arguments(sweep)
    sweep.add_argument("--csv", type=Path, help="write sweep CSV here")
    _add_workers_argument(sweep)
    _add_resilience_arguments(sweep)
    _add_trace_argument(sweep)
    sweep.set_defaults(handler=_cmd_sweep)

    simulate = commands.add_parser("simulate", help="attack campaign against a deployment")
    _add_model_arguments(simulate)
    simulate.add_argument("--deployment", type=Path, required=True,
                          help="deployment JSON (list of monitor ids)")
    simulate.add_argument("--repetitions", type=int, default=10)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--failure-rate", type=float, default=0.0)
    _add_trace_argument(simulate)
    simulate.set_defaults(handler=_cmd_simulate)

    contrib = commands.add_parser(
        "contrib", help="per-monitor contribution report (Shapley + leave-one-out)"
    )
    _add_model_arguments(contrib)
    _add_weight_arguments(contrib)
    contrib.add_argument("--deployment", type=Path, required=True,
                         help="deployment JSON (list of monitor ids)")
    contrib.add_argument("--samples", type=int, default=200)
    contrib.add_argument("--seed", type=int, default=0)
    _add_workers_argument(contrib)
    _add_resilience_arguments(contrib)
    _add_trace_argument(contrib)
    contrib.set_defaults(handler=_cmd_contrib)

    frontier = commands.add_parser(
        "frontier", help="exact cost-utility Pareto frontier (epsilon-constraint)"
    )
    _add_model_arguments(frontier)
    _add_weight_arguments(frontier)
    frontier.add_argument("--backend", default="scipy",
                          choices=BACKENDS)
    frontier.add_argument("--max-points", type=int, default=1000)
    _add_solver_arguments(frontier)
    frontier.add_argument("--csv", type=Path, help="write the frontier CSV here")
    _add_trace_argument(frontier)
    frontier.set_defaults(handler=_cmd_frontier)

    stats = commands.add_parser(
        "stats", help="render the metrics carried by a --trace file"
    )
    # dest must not collide with the --trace capture flag: main() treats
    # a non-None ``args.trace`` as "record this run", which would
    # overwrite the very file stats is reading.
    stats.add_argument(
        "trace_file", metavar="trace",
        type=Path, help="trace/metrics JSON written by --trace",
    )
    stats.set_defaults(handler=_cmd_stats)

    compare = commands.add_parser(
        "compare", help="diff two deployments: monitors, cost, per-attack coverage"
    )
    _add_model_arguments(compare)
    _add_weight_arguments(compare)
    compare.add_argument("--a", type=Path, required=True, help="baseline deployment JSON")
    compare.add_argument("--b", type=Path, required=True, help="candidate deployment JSON")
    compare.set_defaults(handler=_cmd_compare)

    gaps = commands.add_parser(
        "gaps", help="coverage gaps of a deployment and the cheapest fixes"
    )
    _add_model_arguments(gaps)
    gaps.add_argument("--deployment", type=Path, required=True,
                      help="deployment JSON (list of monitor ids)")
    gaps.add_argument("--threshold", type=float, default=0.5,
                      help="report events covered below this level")
    gaps.set_defaults(handler=_cmd_gaps)

    export = commands.add_parser("export-casestudy",
                                 help="write the built-in case study to JSON")
    export.add_argument("path", type=Path)
    export.set_defaults(handler=_cmd_export_casestudy)

    lint = commands.add_parser(
        "lint", help="static analysis: invariant rules, import cycles, layering"
    )
    lint.add_argument("paths", nargs="*", default=["src/repro"], metavar="PATH",
                      help="files or directories to lint (default: src/repro)")
    lint.add_argument("--format", choices=["text", "json"], default="text",
                      help="report format on stdout (default: text)")
    lint.add_argument("--rule", action="append", default=None, metavar="RULE-ID",
                      help="run only this rule (repeatable); default: all rules")
    lint.add_argument("--output", type=Path, default=None, metavar="OUT.json",
                      help="additionally write the JSON report here (CI artifact)")
    lint.add_argument("--deep", action="store_true",
                      help="whole-program dataflow analysis: nondeterminism "
                      "taint, set-order leaks, fork capture")
    lint.add_argument("--baseline", default=None, metavar="BASELINE.json",
                      help="deep mode: accepted-findings baseline (default: "
                      "auto-discover deep-baseline.json; 'none' disables)")
    lint.add_argument("--write-baseline", type=Path, default=None,
                      metavar="BASELINE.json",
                      help="deep mode: regenerate the baseline from this run")
    lint.set_defaults(handler=_cmd_lint)

    def _add_service_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--workers", type=int, default=2,
                         help="concurrent worker slots (default: 2)")
        sub.add_argument("--queue-limit", type=int, default=64,
                         help="service-wide pending-job bound (default: 64)")
        sub.add_argument("--max-retries", type=int, default=1,
                         help="retries for transient job faults (default: 1)")
        sub.add_argument("--presolve", action=argparse.BooleanOptionalAction,
                         default=False,
                         help="route solves through the exact presolve pipeline "
                         "(opt-in: may break ties among equally-optimal "
                         "deployments differently than a cold solve)")
        sub.add_argument("--cache-bytes", type=int, default=64 << 20,
                         metavar="N",
                         help="session/family cache budget in estimated bytes "
                         "(default: 64 MiB)")
        sub.add_argument("--cache-ttl", type=float, default=None, metavar="SECONDS",
                         help="evict cache entries idle longer than this "
                         "(default: no TTL)")

    serve = commands.add_parser(
        "serve",
        help="run the multi-tenant solve service over line-delimited JSON "
        "(stdin/stdout, or a Unix socket)",
    )
    _add_service_arguments(serve)
    serve.add_argument("--socket", type=Path, default=None, metavar="PATH",
                       help="listen on a Unix socket instead of stdin/stdout")
    serve.set_defaults(handler=_cmd_serve)

    loadgen = commands.add_parser(
        "loadgen",
        help="drive a fresh solve service with seeded mixed-tenant traffic "
        "and report throughput/latency/hit-rate",
    )
    _add_model_arguments(loadgen)
    _add_service_arguments(loadgen)
    loadgen.add_argument("--jobs", type=int, default=200,
                         help="measured jobs to submit (default: 200)")
    loadgen.add_argument("--tenants", type=int, default=4,
                         help="distinct tenants in the mix (default: 4)")
    loadgen.add_argument("--seed", type=int, default=0,
                         help="traffic seed (default: 0)")
    loadgen.add_argument("--warmup", type=int, default=0,
                         help="unmeasured warm-up jobs first (default: 0)")
    loadgen.add_argument("--json", type=Path, default=None, metavar="OUT.json",
                         help="write the full report JSON here")
    _add_trace_argument(loadgen)
    loadgen.set_defaults(handler=_cmd_loadgen)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        trace_path = getattr(args, "trace", None)
        if trace_path is None:
            return args.handler(args)
        with obs.capture() as cap:
            code = args.handler(args)
        write_trace(trace_path, cap.tracer, cap.registry)
        print(f"trace written to {trace_path}", file=sys.stderr)
        return code
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output was piped into a consumer that stopped reading (head,
        # less); that is not an error worth a traceback.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
