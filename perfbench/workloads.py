"""The benchmark's three training workloads, built through the public API.

All three train SmallVGG on the CIFAR100-like generator restricted to ten
classes (``data_scale=0.15``), on eight workers, for 120 steps with an
evaluation every 20 steps — the configuration the repository's own
acceptance tests use, and one that learns. They differ only in the method,
the executor and the opt-in subsystems switched on.

Every knob that an environment variable could otherwise supply
(``REPRO_EXECUTOR``, ``REPRO_PS_SHARDS``) is passed explicitly, so the
ambient environment cannot change a workload.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro import obs
from repro.core import TrainConfig
from repro.experiments.runner import MethodSpec, build_trainer
from repro.experiments.workloads import BuiltWorkload, build_workload

N_WORKERS = 8
N_STEPS = 120
EVAL_EVERY = 20
DATA_SCALE = 0.15


@dataclass(frozen=True)
class WorkloadSpec:
    """One named benchmark workload."""

    name: str
    method: str
    method_params: Dict = field(default_factory=dict)
    cluster_kwargs: Dict = field(default_factory=dict)
    #: Install the program's own JSONL trace (``repro.obs.Tracer``).
    program_trace: bool = False
    checkpoint_every: Optional[int] = None


WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        # The paper's method on the serial executor: nn compute is almost
        # all of the step; sync, server and aggregation run on ~13% of steps.
        WorkloadSpec(
            name="selsync_serial",
            method="selsync",
            method_params={"delta": 0.3, "aggregation": "params"},
            cluster_kwargs={
                "executor": "serial",
                "executor_procs": None,
                "ps_shards": 1,
            },
        ),
        # A gradient allreduce every step on the 2-process executor under
        # membership changes: executor transport, BLAS oversubscription,
        # repartition and pool re-fork dominate.
        WorkloadSpec(
            name="bsp_process_elastic",
            method="bsp",
            cluster_kwargs={
                "executor": "process",
                "executor_procs": 2,
                "ps_shards": 1,
                "elastic_spec": "join:+2@40,drain:w5@80",
            },
        ),
        # selsync_serial plus the state written beside training: fault
        # draws and screening, sharded aggregation, trace events and
        # checkpoints, all of which selsync_serial bypasses.
        #
        # corrupt:p=0.05 with trimmed_mean f=2, not the p=0.1/f=3
        # acceptance setting: that setting collapses on seeds 2-3 (NaN loss
        # on seed 2), and a benchmark workload must not fail on any seed it
        # is run with. See README.md, "Known issues".
        WorkloadSpec(
            name="selsync_chaos_traced",
            method="selsync",
            method_params={"delta": 0.3, "aggregation": "params"},
            cluster_kwargs={
                "executor": "serial",
                "executor_procs": None,
                "ps_shards": 4,
                "fault_spec": "corrupt:p=0.05",
                "aggregator": "trimmed_mean",
                "trim_f": 2,
                "min_quorum": 2,
                "net_fault_spec": "loss:p=0.05",
            },
            program_trace=True,
            checkpoint_every=10,
        ),
    )
}


@dataclass
class Prepared:
    """A workload ready to run: the built cluster, its trainer and config."""

    spec: WorkloadSpec
    built: BuiltWorkload
    trainer: object
    cfg: TrainConfig
    tracer: Optional[obs.Tracer]
    trace_path: Optional[str]
    checkpoint_path: Optional[str]

    def close(self) -> None:
        """Release the executor (joins pool children, unlinks segments)."""
        self.trainer.executor.shutdown()


def build_workload_for(spec: WorkloadSpec, seed: int) -> BuiltWorkload:
    """The spec's workload on its cluster, before any trainer exists."""
    return build_workload(
        "vgg_cifar100",
        n_workers=N_WORKERS,
        n_steps=N_STEPS,
        partition_scheme="seldp",
        data_scale=DATA_SCALE,
        seed=seed,
        cluster_kwargs=dict(spec.cluster_kwargs),
        dataset_overrides={"n_classes": 10},
    )


def prepare(spec: WorkloadSpec, seed: int, workdir: str) -> Prepared:
    """Build the workload and its trainer; everything ``setup_s`` times."""
    built = build_workload_for(spec, seed)
    trainer = build_trainer(MethodSpec(spec.method, dict(spec.method_params)), built)
    tracer = trace_path = checkpoint_path = None
    if spec.program_trace:
        trace_path = os.path.join(workdir, "trace.jsonl")
        tracer = obs.Tracer(path=trace_path, name=spec.name)
    if spec.checkpoint_every is not None:
        checkpoint_path = os.path.join(workdir, "checkpoint.npz")
    cfg = TrainConfig(
        n_steps=N_STEPS,
        eval_every=EVAL_EVERY,
        eval_fn=built.eval_fn,
        higher_is_better=built.higher_is_better,
        checkpoint_every=spec.checkpoint_every,
        checkpoint_path=checkpoint_path,
        tracer=tracer,
    )
    return Prepared(spec, built, trainer, cfg, tracer, trace_path, checkpoint_path)
