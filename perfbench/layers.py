"""The traced run and the per-layer metrics computed from its spans.

Unless its unit says otherwise, a ``*_ms`` metric is a layer's self time
(its spans minus their direct child spans) in milliseconds per training
step, summed over workers; ``executor.compute_ms`` and ``trainer.eval_ms``
are inclusive. Layer spans count only inside ``trainer.step`` (evaluation
forward passes belong to ``trainer.eval_ms``). nn spans exist only on
serial workloads, because spans inside process-pool children are not
recorded.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

from repro.core import trainer as trainer_module

import runs
from spans import SpanRecorder, SpanTable, recording

NN_SPANS = (
    "nn.conv.fwd",
    "nn.conv.bwd",
    "nn.pool.fwd",
    "nn.pool.bwd",
    "nn.relu.fwd",
    "nn.relu.bwd",
    "nn.linear.fwd",
    "nn.linear.bwd",
    "nn.dropout",
)
PER_STEP_SPANS = (
    "data.next_batch",
    "optim.step",
    "core.delta_update",
    "trainer.fault_plumbing",
    "server.aggregate",
    "comm.collective",
)
#: Direct children of ``trainer.run`` that count as covered; the rest of
#: the run's wall time is the loop gap.
LOOP_SPANS = ("trainer.step", "trainer.eval", "ckpt.state", "ckpt.save")


def traced_run(spec, seed: int, workdir: str, timed_samples_per_s: float):
    """One run with every layer span installed; returns the run and its
    per-layer metrics."""
    prepared, _ = runs.timed_setup(spec, seed, workdir)
    recorder = SpanRecorder()
    ckpt_sizes: List[int] = []
    with recording(recorder):
        spanned_save = trainer_module.save_checkpoint

        def save_and_size(state, path):
            spanned_save(state, path)
            ckpt_sizes.append(os.path.getsize(path))

        trainer_module.save_checkpoint = save_and_size
        try:
            run = runs.run_once(prepared)
        finally:
            trainer_module.save_checkpoint = spanned_save
    metrics = layer_metrics(recorder, run, prepared, ckpt_sizes)
    metrics["trace.overhead"] = (run.samples_per_s / timed_samples_per_s, "ratio")
    return run, metrics


def layer_metrics(
    recorder: SpanRecorder, run: "runs.RunResult", prepared, ckpt_sizes: List[int]
) -> Dict[str, Tuple[float, str]]:
    t = SpanTable(recorder)
    steps = run.steps

    def per_step(seconds: float) -> float:
        return 1000.0 * seconds / steps

    def per_call(name: str, seconds: float) -> float:
        n = t.count(name)
        return 1000.0 * seconds / n if n else 0.0

    out: Dict[str, Tuple[float, str]] = {}
    for name in NN_SPANS:
        out[name + "_ms"] = (per_step(t.self_time(name, "trainer.step")), "ms/step")

    step_total = t.total("trainer.step")
    compute = t.total("executor.compute", within="trainer.step")
    out["executor.compute_ms"] = (per_step(compute), "ms/step")
    out["executor.self_ms"] = (
        per_step(t.self_time("executor.compute", "trainer.step")),
        "ms/step",
    )
    out["executor.compute_share"] = (compute / step_total, "fraction")

    for name in PER_STEP_SPANS:
        out[name + "_ms"] = (per_step(t.self_time(name, "trainer.step")), "ms/step")
    out["core.sync_ratio"] = (run.synced / steps, "fraction")
    out["trainer.eval_ms"] = (
        per_call("trainer.eval", t.total("trainer.eval")),
        "ms/eval",
    )
    out["server.aggregate_calls"] = (float(t.count("server.aggregate")), "count")

    group = prepared.trainer.group
    out["comm.bytes_synced"] = (float(group.bytes_synced), "B")
    out["comm.sim_comm_s"] = (run.sim_comm_s, "s")
    out["comm.retries"] = (
        float(group.envelope.n_retries) if group.envelope is not None else 0.0,
        "count",
    )

    out["ckpt.save_ms"] = (
        per_call("ckpt.save", t.self_time("ckpt.save")),
        "ms/save",
    )
    out["ckpt.bytes"] = (
        sum(ckpt_sizes) / len(ckpt_sizes) if ckpt_sizes else 0.0,
        "B/save",
    )
    out["obs.emit_ms"] = (per_step(t.self_time("obs.emit")), "ms/step")
    out["obs.events"] = (float(t.count("obs.emit")), "count")
    out["obs.trace_bytes"] = (float(run.outputs.get("trace_bytes", 0)), "B")
    out["obs.close_ms"] = (
        per_call("obs.close", t.self_time("obs.close")),
        "ms/close",
    )

    run_wall = t.total("trainer.run")
    children = t.children_of("trainer.run")
    covered = sum(children.get(name, 0.0) for name in LOOP_SPANS)
    out["loop.gap_ms"] = (per_step(run_wall - covered), "ms/step")
    sizes = run.world_sizes
    out["elastic.resizes"] = (
        float(sum(1 for a, b in zip(sizes, sizes[1:]) if a != b)),
        "count",
    )
    out["trace.span_coverage"] = (covered / run_wall, "fraction")
    return out
