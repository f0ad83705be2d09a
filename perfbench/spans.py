"""In-memory span recording around the public calls into each layer.

The traced run patches methods at *class* level (so replicas created
mid-run — elastic joiners — are covered too), records one span per call
into flat lists, and restores every patched attribute on exit. Nothing
under ``src/`` knows about it.

Spans are recorded only on the thread and process that opened the
recorder: pool children inherit the patched classes through ``fork`` but
record nothing (their spans would be invisible to the parent anyway), so
the nn layer spans exist on serial workloads only.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.cluster.executor import ProcessExecutor, SerialExecutor, ThreadedExecutor
from repro.cluster.server import ParameterServer, ShardedParameterServer
from repro.cluster.worker import SimWorker
from repro.comm.collectives import SimGroup
from repro.core import BSPTrainer, SelSyncTrainer
from repro.core import trainer as trainer_module
from repro.core.grad_tracker import RelativeGradChange
from repro.core.trainer import DistributedTrainer
from repro.data.loader import BatchLoader
from repro.nn.layers import Conv2d, Dropout, Linear, MaxPool2d, ReLU

#: Span name -> the (owner, attribute) pairs it wraps. Several attributes
#: may share a name; nested spans of one name count once (outermost wins).
TARGETS: Dict[str, Sequence[Tuple[object, str]]] = {
    "trainer.run": [(DistributedTrainer, "run")],
    "trainer.step": [(SelSyncTrainer, "step"), (BSPTrainer, "step")],
    "trainer.eval": [(DistributedTrainer, "evaluate")],
    "trainer.fault_plumbing": [
        (DistributedTrainer, name)
        for name in (
            "begin_faults",
            "apply_corruption",
            "screen_updates",
            "upload_penalty",
            "check_quorum",
            "wire_updates",
        )
    ],
    "ckpt.state": [(DistributedTrainer, "state_dict")],
    # The trainer calls save_checkpoint through its module global.
    "ckpt.save": [(trainer_module, "save_checkpoint")],
    "executor.compute": [
        (SerialExecutor, "compute_gradients"),
        (ThreadedExecutor, "compute_gradients"),
        (ProcessExecutor, "compute_gradients"),
    ],
    "data.next_batch": [(BatchLoader, "next_batch")],
    "optim.step": [(SimWorker, "local_step")],
    "core.delta_update": [(RelativeGradChange, "update")],
    "server.aggregate": [
        (ParameterServer, "aggregate_params"),
        (ParameterServer, "aggregate_grads"),
        (ShardedParameterServer, "aggregate_params"),
        (ShardedParameterServer, "aggregate_grads"),
    ],
    "comm.collective": [
        (SimGroup, name)
        for name in (
            "begin_step",
            "allreduce_mean",
            "charge_sync",
            "sync_time_only",
            "push_outcome",
            "allgather_flags",
            "broadcast",
            "p2p",
        )
    ],
    "obs.emit": [(obs.Tracer, "emit")],
    "obs.close": [(obs.Tracer, "close")],
    "nn.conv.fwd": [(Conv2d, "forward")],
    "nn.conv.bwd": [(Conv2d, "backward")],
    "nn.pool.fwd": [(MaxPool2d, "forward")],
    "nn.pool.bwd": [(MaxPool2d, "backward")],
    "nn.relu.fwd": [(ReLU, "forward")],
    "nn.relu.bwd": [(ReLU, "backward")],
    "nn.linear.fwd": [(Linear, "forward")],
    "nn.linear.bwd": [(Linear, "backward")],
    "nn.dropout": [(Dropout, "forward"), (Dropout, "backward")],
}


class SpanRecorder:
    """Flat, append-only span store: name, start, end, parent index."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self._stack: List[int] = []
        self._pid = os.getpid()
        self._tid = threading.get_ident()

    def wrap(self, name: str, fn):
        rec = self
        clock = self.clock

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if threading.get_ident() != rec._tid or os.getpid() != rec._pid:
                return fn(*args, **kwargs)
            idx = len(rec.names)
            rec.names.append(name)
            rec.parents.append(rec._stack[-1] if rec._stack else -1)
            rec.ends.append(0.0)
            rec._stack.append(idx)
            rec.starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                rec.ends[idx] = clock()
                rec._stack.pop()

        return spanned


class SpanTable:
    """Query view over a finished recording (durations, nesting)."""

    def __init__(self, rec: SpanRecorder):
        n = len(rec.names)
        self.names = rec.names
        self.dur = [rec.ends[i] - rec.starts[i] for i in range(n)]
        self.parents = rec.parents
        # A parent is always recorded before its children, so one forward
        # pass builds every span's set of ancestor names (interned: spans
        # at the same nesting share one frozenset).
        interned: Dict[frozenset, frozenset] = {}
        self.anc: List[frozenset] = []
        self.child_time = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p < 0:
                a = frozenset()
            else:
                a = self.anc[p] | {self.names[p]}
                self.child_time[p] += self.dur[i]
            self.anc.append(interned.setdefault(a, a))

    def outermost(self, name: str, within: Optional[str] = None) -> List[int]:
        """Spans of ``name`` not nested in another ``name`` span, optionally
        restricted to those inside a ``within`` span."""
        return [
            i
            for i, n in enumerate(self.names)
            if n == name
            and name not in self.anc[i]
            and (within is None or within in self.anc[i])
        ]

    def count(self, name: str, within: Optional[str] = None) -> int:
        return len(self.outermost(name, within))

    def total(self, name: str, within: Optional[str] = None) -> float:
        return sum(self.dur[i] for i in self.outermost(name, within))

    def self_time(self, name: str, within: Optional[str] = None) -> float:
        """Time inside ``name`` spans not covered by their direct child
        spans (children run on the same thread, so they never overlap).
        Summed over every ``name`` span, nested ones included: an inner
        span is a child of the outer one, so nothing is counted twice."""
        return sum(
            self.dur[i] - self.child_time[i]
            for i, n in enumerate(self.names)
            if n == name and (within is None or within in self.anc[i])
        )

    def children_of(self, parent_name: str) -> Dict[str, float]:
        """Time of the direct children of ``parent_name`` spans, by name."""
        out: Dict[str, float] = defaultdict(float)
        for i, p in enumerate(self.parents):
            if p >= 0 and self.names[p] == parent_name:
                out[self.names[i]] += self.dur[i]
        return out


@contextmanager
def recording(recorder: SpanRecorder):
    """Install the class-level wrappers for the duration of the block.

    Every target is defined on its owner itself (``vars`` raises
    otherwise), so restoring is a plain ``setattr`` of the original.
    """
    undo = []
    try:
        for name, targets in TARGETS.items():
            for owner, attr in targets:
                original = vars(owner)[attr]
                undo.append((owner, attr, original))
                setattr(owner, attr, recorder.wrap(name, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
