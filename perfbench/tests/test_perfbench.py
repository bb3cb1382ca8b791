"""Tests of the benchmark itself: tracing leaves no trace, span arithmetic,
metric names, and a tiny run of every workload.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from segxfer import (adaptive_cluster, experiments, numkit, segmodel, synthdata, tma,
                     transferability)

import run
from seedrun import run_seed
from tracing import ROOT_SPAN, layer_metrics, module_of, self_times
from workloads import WORKLOADS

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
NAME = re.compile(r"[A-Za-z0-9_.-]+")
PACKAGE_MODULES = (adaptive_cluster, experiments, numkit, segmodel, synthdata, tma,
                   transferability)


def tiny(workload):
    """The workload's shape of run on a minimal budget."""
    small = dict(workload.config, source_count=2, target_count=2, eval_count=2,
                 source_steps=2, finetune_steps=2, batch_size=2, disc_epochs=1)
    if workload.config.get("height", 32) > 32:
        small.update(height=48, width=48)
    return replace(workload, config=small)


@pytest.fixture(scope="module")
def tiny_runs():
    """Per workload: an untraced seed (with re-evaluation) and a traced seed."""
    out = {}
    for name, workload in WORKLOADS.items():
        small = tiny(workload)
        config = small.run_config()
        out[name] = (run_seed(small, config, 0, recheck=True),
                     run_seed(small, config, 0, traced=True))
    return out


def test_traced_run_restores_every_binding():
    before = {m.__name__: dict(vars(m)) for m in PACKAGE_MODULES}
    small = tiny(WORKLOADS["hires96"])
    outcome = run_seed(small, small.run_config(), 0, traced=True)
    assert outcome.layers["segmodel.loss_and_grads_calls"] > 0
    for m in PACKAGE_MODULES:
        after = vars(m)
        assert after.keys() == before[m.__name__].keys()
        changed = [k for k, v in before[m.__name__].items() if after[k] is not v]
        assert changed == [], f"{m.__name__} still patched: {changed}"


def test_self_times_on_hand_built_tree():
    spans = [
        (ROOT_SPAN, 0.0, 10.0, -1),
        ("experiments.prepare_seed", 1.0, 6.0, 0),
        ("adaptive_cluster.cluster", 1.5, 3.5, 1),
        ("adaptive_cluster.compute_similarity", 2.0, 3.0, 2),
        ("segmodel.train", 4.0, 5.5, 1),
        ("experiments.finetune_variant", 7.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 1.5, 1.0, 1.0, 1.5, 2.0])
    m = layer_metrics(spans, {})
    assert m["trace.seed_s"] == pytest.approx(10.0)
    assert m["adaptive_cluster.self_s"] == pytest.approx(2.0)
    assert m["adaptive_cluster.cluster_s"] == pytest.approx(2.0)
    assert m["experiments.self_s"] == pytest.approx(3.5)
    assert m["segmodel.self_share"] == pytest.approx(0.15)
    assert module_of("tma.build_mask") == "tma"


def test_self_times_sum_to_the_root(tiny_runs):
    _, traced = tiny_runs["sweep_clutter32"]
    spans = traced.tracer.spans
    assert sum(self_times(spans)) == pytest.approx(spans[0][2] - spans[0][1])


def test_every_workload_passes_a_tiny_run(tiny_runs):
    for name, (plain, traced) in tiny_runs.items():
        for outcome in (plain, traced):
            problems = [p for op in outcome.operations for p in op.problems]
            assert problems == [], name
            assert len(outcome.operations) == 1 + len(WORKLOADS[name].finetunes)
            assert set(outcome.quality) == {"miou_tmt", "miou_vanilla", "region_auc"}
        assert traced.quality == plain.quality, "tracing changed a result"
    sweep = tiny_runs["sweep_clutter32"][1].layers
    assert sweep["adaptive_cluster.repeat_cluster_calls"] > 0
    assert tiny_runs["hires96"][1].layers["adaptive_cluster.repeat_cluster_calls"] == 0


def test_check_catches_variants_drawing_different_batches(monkeypatch):
    train = experiments.train
    calls = []

    def reseeded(*args, **kwargs):
        calls.append(1)
        kwargs["seed"] += len(calls)
        return train(*args, **kwargs)

    monkeypatch.setattr(experiments, "train", reseeded)
    small = tiny(WORKLOADS["hires96"])
    small = replace(small, config=dict(small.config, finetune_steps=6))
    outcome = run_seed(small, small.run_config(), 0)
    flagged = [op.name for op in outcome.operations
               if any("batch indices" in p for p in op.problems)]
    assert len(flagged) == len(small.finetunes) - 1


def test_metric_names_and_units_match_benchmark_json(tiny_runs):
    spec = json.loads(BENCHMARK_JSON.read_text())
    plain, traced = tiny_runs["hires96"]
    emitted = {
        "end_to_end": {k: run.END_TO_END_UNITS[k]
                       for k in run.end_to_end([plain], [0.1], 1)},
        "per_layer": {k: run.layer_unit(k) for k in run.per_layer([plain], [traced])},
    }
    for section in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        assert declared == emitted[section], section
        for name in declared:
            assert NAME.fullmatch(name), name
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
