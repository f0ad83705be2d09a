"""One training run of a benchmark workload: timing and output checks."""

from __future__ import annotations

import gc
import math
import os
import time
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Dict, List

from repro.obs.sink import read_trace
from repro.utils.serialization import load_checkpoint

import workloads


class ShmLedger:
    """Names of the shared-memory segments created while installed."""

    def __init__(self):
        self.names: List[str] = []
        self._original = None

    def __enter__(self):
        ledger = self
        original = self._original = shared_memory.SharedMemory.__init__

        def init(shm, name=None, create=False, size=0, **kwargs):
            original(shm, name, create, size, **kwargs)
            if create:
                ledger.names.append(shm.name)

        shared_memory.SharedMemory.__init__ = init
        return self

    def __exit__(self, *exc):
        shared_memory.SharedMemory.__init__ = self._original
        return False

    def leaked(self) -> List[str]:
        """Segments still present (Linux exposes them under /dev/shm)."""
        if not os.path.isdir("/dev/shm"):
            return []
        return [n for n in self.names if os.path.exists("/dev/shm/" + n.lstrip("/"))]


@dataclass
class RunResult:
    """One training run: its timings, its outputs and its failed checks."""

    wall_s: float
    step_s: List[float]
    world_sizes: List[int]
    samples: int
    steps: int
    synced: int
    sim_s: float
    sim_comm_s: float
    final_top1: float
    final_loss: float
    outputs: Dict = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)

    @property
    def samples_per_s(self) -> float:
        return self.samples / self.wall_s


def timed_setup(spec, seed: int, workdir: str):
    """Prepare the workload; returns it with the set-up wall time. Garbage
    from earlier runs is collected first, outside the timed region."""
    gc.collect()
    t0 = time.perf_counter()
    prepared = workloads.prepare(spec, seed, workdir)
    return prepared, time.perf_counter() - t0


def run_once(prepared) -> RunResult:
    """Run a prepared workload to the end, timing ``trainer.step`` calls.

    The step timer is an instance attribute over the bound method, so it
    costs two clock reads per step and nothing else.
    """
    trainer = prepared.trainer
    batch = prepared.built.batch_size
    step_s: List[float] = []
    world: List[int] = []
    inner = trainer.step
    clock = time.perf_counter

    def timed_step(i):
        world.append(len(trainer.workers))
        t0 = clock()
        rec = inner(i)
        step_s.append(clock() - t0)
        return rec

    trainer.step = timed_step
    with ShmLedger() as shm:
        try:
            t0 = clock()
            result = trainer.run(prepared.cfg)
            wall = clock() - t0
        finally:
            del trainer.step
            prepared.close()
            if prepared.tracer is not None:
                prepared.tracer.close()
    log = result.log
    run = RunResult(
        wall_s=wall,
        step_s=step_s,
        world_sizes=world,
        samples=batch * sum(world),
        steps=log.n_steps,
        synced=sum(1 for r in log.iterations if r.synced),
        sim_s=result.sim_time,
        sim_comm_s=sum(r.comm_time for r in log.iterations),
        final_top1=result.final_metric,
        final_loss=log.iterations[-1].loss,
    )
    run.failures = check_run(prepared, result, run, shm)
    return run


def check_run(prepared, result, run: RunResult, shm: ShmLedger) -> List[str]:
    """Output checks; returns the names of the checks that failed."""
    log = result.log
    spec = prepared.spec
    bad = []
    if log.n_steps != workloads.N_STEPS:
        bad.append(f"ran {log.n_steps} of {workloads.N_STEPS} steps")
    if not all(math.isfinite(r.loss) for r in log.iterations):
        bad.append("non-finite step loss")
    # The loop's own running clock (stamped on every eval record) and the
    # ordered sum of the per-step records must both equal the result.
    ordered = 0.0
    for r in log.iterations:
        ordered += r.sim_time
    if not (result.sim_time == ordered == log.evals[-1].sim_time):
        bad.append("sim_s != sum of IterationRecord.sim_time")
    if not (run.final_top1 is not None and math.isfinite(run.final_top1)):
        bad.append("no finite final evaluation")
    if spec.program_trace:
        _, events = read_trace(prepared.trace_path)
        traced = sum(e.data["bytes"] for e in events if e.etype == "collective")
        counted = prepared.tracer.metrics.get("comm.bytes")
        ledger = prepared.trainer.group.bytes_synced
        run.outputs["trace_bytes"] = os.path.getsize(prepared.trace_path)
        if not traced == counted == ledger:
            bad.append(
                f"collective bytes disagree: trace {traced}, metrics "
                f"{counted}, bytes_synced {ledger}"
            )
    if spec.checkpoint_every is not None:
        step = load_checkpoint(prepared.checkpoint_path)["step"]
        if step != workloads.N_STEPS:
            bad.append(f"last checkpoint is at step {step}")
    if spec.cluster_kwargs.get("elastic_spec"):
        sizes = [n for k, n in enumerate(run.world_sizes) if k == 0 or n != run.world_sizes[k - 1]]
        if sizes != [8, 10, 9]:
            bad.append(f"world sizes {sizes}, expected [8, 10, 9]")
    leaked = shm.leaked()
    if leaked:
        bad.append(f"shared-memory segments left after shutdown: {leaked}")
    return bad
