"""The benchmark command: one seeded workload against the real service over HTTP.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sync-online --seed 1 --seconds 25 --trace 0

Workloads: ``sync-online``, ``async-burst``, ``durable-tenants`` (see
``perfbench/workloads.py`` for what each stresses and why).  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` serves through
``perfbench/launcher.py`` and reports the per-layer metrics instead.  The
human-readable report (metrics with units and sample counts, request
accounting per phase, the run record, the layer split) goes first; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every correctness
check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import signal
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.harness import SINGLE_THREAD_ENV  # noqa: E402

WORKLOADS = ("sync-online", "async-burst", "durable-tenants")

#: A run that has not finished by then stops its servers and fails, so the
#: command always exits within the 180 s a run may take.
WATCHDOG_S = 170


def git_commit(root: pathlib.Path) -> str:
    """The checked-out commit, read from ``.git`` (``unknown`` outside git)."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = root / ".git" / name
            if loose.exists():
                return loose.read_text().strip()
            for line in (root / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def run_record(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(ROOT),
        "blas_threads": 1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "selfcheck"), default="full",
        help="selfcheck: the seconds-long size the benchmark's own tests run",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "service" / "__main__.py").is_file():
        print(f"error: no service source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD_ENV)
    sys.path.insert(0, str(ROOT / "src"))

    from perfbench import report
    from perfbench.harness import BenchError
    from perfbench.workloads import run_workload

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"

    def watchdog(signum, frame):
        raise BenchError(f"run exceeded {WATCHDOG_S}s")

    signal.signal(signal.SIGALRM, watchdog)
    signal.alarm(WATCHDOG_S)
    try:
        run = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), ROOT, work, args.size
        )
        lines, metrics = summarise(run, args, report)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for line in lines:
        print(line)
    correct = not run.problems
    result = {
        "correct": correct,
        "attempted": run.ledger.attempted,
        "failed": run.ledger.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


def summarise(run, args, report):
    """Report lines and the result's ``metrics`` object."""
    lines = [f"# perfbench {args.workload} seed={args.seed} trace={args.trace}"]
    lines.append("run record: " + json.dumps(run_record(args), sort_keys=True))
    e2e = report.end_to_end(run)
    lines.append("end-to-end (tracing off):" if not args.trace else "end-to-end (traced run):")
    for name, unit, _better in report.END_TO_END:
        value, unit, samples = e2e[name]
        lines.append(f"  {name:<22} {value:>12.4f} {unit:<6} n={samples}")
    value, unit, samples = e2e["error_rate"]
    lines.append(f"  {'error_rate':<22} {value:>12.4f} {unit:<6} n={samples} (printed only)")
    attempted, failed = run.ledger.attempted, run.ledger.failed
    lines.append(
        f"  ops_failed_ratio       {failed / attempted if attempted else 0.0:>12.4f} ratio  "
        f"n={attempted}"
    )
    lines.append("requests by phase/op (attempted/succeeded/failed):")
    for row in run.ledger.table():
        lines.append(
            f"  {row['phase']:<8} {row['op']:<10} {row['attempted']:>6} "
            f"{row['succeeded']:>6} {row['failed']:>4}"
        )
    for error in run.ledger.errors:
        lines.append(f"  failed: {error}")
    for problem in run.problems:
        lines.append(f"CHECK FAILED: {problem}")
    if not run.problems:
        lines.append(
            "checks: every cell estimated and finite; decision ledgers re-hash to the "
            "served chain heads; answers held == answers sent"
            + ("; set-ups agree on the chain heads" if args.workload != "async-burst" else "")
            + ("; tenants recovered with equal answers and chain heads, zero replay "
               "mismatches" if args.workload == "durable-tenants" else "")
        )
    if not args.trace:
        metrics = {
            name: {"value": report.finite_or_zero(e2e[name][0]), "unit": e2e[name][1]}
            for name, _unit, _better in report.END_TO_END
        }
        return lines, metrics
    layers = report.LayerReport(run)
    per_layer = layers.metrics()
    lines.append(f"per layer (traced steps={layers.steps}, units per traced loop step):")
    for name, (value, unit) in per_layer.items():
        lines.append(f"  {name:<46} {value:>14.6g} {unit}")
    lines.append(f"  {'scoring_cache.hit_ratio':<46} n/a (the policy exposes no counters)")
    if layers.absent:
        lines.append("  absent targets: " + ", ".join(layers.absent))
    lines.append("layer split of server request time (self-time share by layer group):")
    for endpoint, shares in sorted(layers.split().items()):
        text = "  ".join(f"{group}={share:.1%}" for group, share in shares.items())
        lines.append(f"  {endpoint:<10} {text}")
    share, count = layers.slow_tasks_wait_share()
    lines.append(f"  tasks >= p90: snapshot_for wait share {share:.1%} of server time (n={count})")
    metrics = {
        name: {"value": report.finite_or_zero(value), "unit": unit}
        for name, (value, unit) in per_layer.items()
    }
    return lines, metrics


if __name__ == "__main__":
    sys.exit(main())
