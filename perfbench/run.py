#!/usr/bin/env python3
"""SelSync training benchmark: end-to-end timed runs and a per-layer traced run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload selsync_serial --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload selsync_serial --seed 0 --seconds 40 --trace 1

Each training run goes through the public API: ``Workload.build`` →
``build_trainer`` → ``trainer.run(TrainConfig)``.

``--trace 0`` repeats whole 120-step training runs, as many as fit in
``--seconds`` of measured time, and reports the end-to-end metrics. ``--trace 1`` makes
one timed run and then one traced run, in which :mod:`spans` wraps the
public calls into each layer at class level; it reports the per-layer
metrics and still prints the end-to-end ones above the result. Every run is
checked (see :func:`check_run`); a failed check counts that run's steps as
failed. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The benchmark measures the program as shipped: it never toggles
``repro.utils.fastpath`` and never sets BLAS thread counts (it only records
them).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-ups per invocation; ``setup_s`` is their median.
SETUP_REPEATS = 15


def _require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: the program sources ({SRC / 'repro'}) are missing; "
            "run the benchmark from a full checkout",
            file=sys.stderr,
        )
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def host_fingerprint() -> Dict:
    """What the numbers depend on, as found (the benchmark sets none of it)."""
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
    except (TypeError, KeyError):  # numpy without show_config(mode=...)
        pass
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        affinity = None
    return {
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def peak_rss_mib() -> float:
    """``ru_maxrss`` of this process plus that of its largest reaped child
    (``RUSAGE_CHILDREN``; the pool children are joined at shutdown)."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0


def end_to_end(runs, setups: List[float], rss: float) -> Dict[str, Tuple[float, str]]:
    """The bounded end-to-end metrics, over every timed run."""
    steps_ms = sorted(1000.0 * s for r in runs for s in r.step_s)
    deciles = statistics.quantiles(steps_ms, n=10)
    samples = sum(r.samples for r in runs)
    return {
        "samples_per_s": (samples / sum(r.wall_s for r in runs), "1/s"),
        "step_ms_p50": (statistics.median(steps_ms), "ms"),
        "step_ms_p90": (deciles[8], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MiB"),
    }


def outcomes(run) -> Dict[str, Tuple[float, str]]:
    """What the run computed. Pure functions of the seed: they repeat
    exactly for one seed and vary widely between seeds (README.md, "Known
    issues"), so they are reported without a bound."""
    return {
        "sim_s": (run.sim_s, "s"),
        "final_top1": (run.final_top1, "fraction"),
        "final_loss": (run.final_loss, "nats"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _require_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; choose from "
            f"{sorted(workloads.WORKLOADS)}"
        )
    spec = workloads.WORKLOADS[args.workload]
    host = host_fingerprint()
    work_root = ROOT / ".perfbench_work"
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(spec, args, host, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
        stop_resource_tracker()


def stop_resource_tracker() -> None:
    """Stop and reap the helper process ``multiprocessing`` starts the first
    time the process executor creates a shared-memory segment, so the
    benchmark leaves no process behind. It would otherwise exit on its own
    only after this process does."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def measure(spec, args, host, workdir) -> int:
    import workloads
    from layers import traced_run
    from runs import run_once, timed_setup

    setups: List[float] = []
    runs = []

    def timed_run():
        prepared, dt = timed_setup(spec, args.seed, workdir)
        setups.append(dt)
        runs.append(run_once(prepared))

    # Whole 120-step runs, as many as fit in --seconds (at least one); the
    # traced mode needs one timed run to compare the traced run against.
    timed_run()
    # The high-water mark after the first run: later runs in the same
    # process can only raise it, by however much the allocator fragments.
    rss = peak_rss_mib()
    while not args.trace:
        measured = sum(r.wall_s for r in runs)
        if measured + measured / len(runs) > args.seconds:
            break
        timed_run()
    n_runs = len(runs)
    while len(setups) < SETUP_REPEATS:
        prepared, dt = timed_setup(spec, args.seed, workdir)
        setups.append(dt)
        prepared.close()
    e2e = end_to_end(runs, setups, rss)
    seen = outcomes(runs[0])
    layers = {}
    if args.trace:
        traced, layers = traced_run(spec, args.seed, workdir, e2e["samples_per_s"][0])
        runs.append(traced)
    for r in runs[1:]:
        if outcomes(r) != seen:
            r.failures.append("a repeated run of the seed computed other outcomes")
    failures = [f for r in runs for f in r.failures]
    attempted = sum(r.steps for r in runs)
    failed = sum(r.steps for r in runs if r.failures)

    print(f"host {json.dumps(host, sort_keys=True)}")
    print(
        f"workload {spec.name} seed {args.seed}: {n_runs} timed run(s) of "
        f"{workloads.N_STEPS} steps, {len(setups)} set-ups"
        + (", 1 traced run" if args.trace else "")
    )
    print("  per-run samples_per_s " + " ".join(f"{r.samples_per_s:.6g}" for r in runs))
    for name, (value, unit) in {**e2e, **seen, **layers}.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    metrics = {**seen, **layers} if args.trace else e2e
    for f in failures:
        print(f"CHECK FAILED: {f}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
