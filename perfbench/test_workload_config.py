"""Benchmark-local tests: workload configs are immune to the ambient
environment, and span accounting nests the way the metrics assume.

Run from the repository root::

    python3 -m pytest perfbench/test_workload_config.py -q
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

from repro.core import ClusterConfig  # noqa: E402

import workloads  # noqa: E402
from spans import TARGETS, SpanRecorder, SpanTable, recording  # noqa: E402

AMBIENT = {"REPRO_EXECUTOR": "process", "REPRO_PS_SHARDS": "4"}


def _cluster(spec, monkeypatch, env):
    for key in AMBIENT:
        monkeypatch.delenv(key, raising=False)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    return workloads.build_workload_for(spec, seed=0).cluster


def test_ambient_env_changes_a_default_config(monkeypatch):
    # Guards the test below against passing vacuously: the variables do
    # reach ClusterConfig defaults.
    for key, value in AMBIENT.items():
        monkeypatch.setenv(key, value)
    cfg = ClusterConfig(n_workers=8)
    assert (cfg.executor, cfg.ps_shards) == ("process", 4)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_cluster_config_ignores_ambient_env(name, monkeypatch):
    spec = workloads.WORKLOADS[name]
    clean = _cluster(spec, monkeypatch, {})
    ambient = _cluster(spec, monkeypatch, AMBIENT)
    assert ambient == clean
    assert clean.executor == spec.cluster_kwargs["executor"]
    assert clean.ps_shards == spec.cluster_kwargs["ps_shards"]


def test_span_table_self_time_and_outermost():
    # Each clock read advances one tick.
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))
    inner = rec.wrap("agg", lambda: None)
    outer = rec.wrap("agg", lambda: inner())
    leaf = rec.wrap("leaf", lambda: None)
    step = rec.wrap("step", lambda: (outer(), leaf()))
    step()
    t = SpanTable(rec)
    # step [0, 7]; outer agg [1, 4] holds inner agg [2, 3]; leaf [5, 6].
    assert t.total("step") == 7.0
    assert t.count("agg") == 1 and t.total("agg") == 3.0
    assert t.total("leaf", within="step") == 1.0
    assert t.total("leaf", within="agg") == 0.0
    assert t.self_time("step") == 7.0 - 3.0 - 1.0
    # Nested spans of one layer: outer self 2 + inner self 1.
    assert t.self_time("agg", within="step") == 3.0
    assert t.children_of("step") == {"agg": 3.0, "leaf": 1.0}


def test_recording_restores_every_target():
    before = {(o, a): vars(o)[a] for ts in TARGETS.values() for o, a in ts}
    with recording(SpanRecorder()):
        assert all(vars(o)[a] is not f for (o, a), f in before.items())
    assert all(vars(o)[a] is f for (o, a), f in before.items())
