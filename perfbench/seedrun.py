"""One harness seed through the public entry points, timed and checked.

A seed is one ``experiments.prepare_seed`` plus one
``experiments.finetune_variant`` per entry of the workload (each of which
evaluates on the held-out set).  Every call is an operation; it fails if it
raises a ``SegxferError``, returns a non-finite loss, or breaks an output
invariant checked here.  No golden values are stored: the checks are
invariants only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from segxfer import experiments
from segxfer.errors import SegxferError
from segxfer.runconfig import RunConfig

from tracing import (ROOT_SPAN, Patches, Tracer, install_layer_spans,
                     install_stage_spans, layer_metrics)
from workloads import Workload


class IndexLog(list):
    """A list that records every integer index read from it."""

    def __init__(self, items) -> None:
        super().__init__(items)
        self.picks: list[int] = []

    def __getitem__(self, idx):
        if not isinstance(idx, slice):
            self.picks.append(int(idx))
        return super().__getitem__(idx)


@dataclass
class Recorder:
    """Keeps what the checks need from the harness's train and evaluate
    calls: the batch indices drawn, the losses, and the decoded labels."""

    train_calls: list[tuple[list[int], list[float]]] = field(default_factory=list)
    eval_calls: list[tuple[tuple, dict, list[np.ndarray]]] = field(default_factory=list)
    evaluate: object = None  # the unwrapped evaluate_variant, for re-runs

    def install(self, patches: Patches) -> None:
        train = experiments.train
        self.evaluate = evaluate = experiments.evaluate_variant

        def recorded_train(params, items, *args, **kwargs):
            log = IndexLog(items)
            out = train(params, log, *args, **kwargs)
            self.train_calls.append((log.picks, list(out[1])))
            return out

        def recorded_evaluate(*args, **kwargs):
            out = evaluate(*args, **kwargs)
            self.eval_calls.append((args, kwargs, [p.labels.copy() for p in out[2]]))
            return out

        patches.set(experiments, "train", recorded_train)
        patches.set(experiments, "evaluate_variant", recorded_evaluate)


@dataclass
class Operation:
    name: str
    problems: list[str] = field(default_factory=list)
    result: experiments.VariantResult | None = None
    # Recorder entries made by the call, as index ranges: holding the entries
    # themselves would keep each seed's bundle alive across the run.
    train_range: tuple[int, int] = (0, 0)
    eval_range: tuple[int, int] = (0, 0)


@dataclass
class SeedOutcome:
    seed: int
    seed_s: float
    operations: list[Operation]
    prepare_s: float = math.nan
    pretrain_s: float = math.nan
    train_s: float = 0.0
    train_images: int = 0
    eval_s: float = 0.0
    eval_images: int = 0
    acte_images: int = 0
    quality: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] | None = None
    tracer: Tracer | None = None


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


def region_auc(bundle: experiments.SeedBundle) -> float:
    """AUC of the tmt target regions' transferability against the
    ground-truth transfer bits (empty regions left out)."""
    scores = np.concatenate([t.region_scores for t in bundle.target_tmaps])
    bits = np.concatenate([experiments.region_truth_bits(s, img) for s, img in
                           zip(bundle.target_states, bundle.target_images)])
    keep = bits >= 0
    return experiments.rank_auc(scores[keep], bits[keep])


def run_seed(workload: Workload, config: RunConfig, seed: int, traced: bool = False,
             recheck: bool = False) -> SeedOutcome:
    """Run one harness seed; ``traced`` puts a span on every layer call,
    ``recheck`` evaluates the first fine-tuned model again to confirm its
    labels."""
    tracer = Tracer()
    patches = Patches()
    rec = Recorder()
    ops: list[Operation] = []
    bundle = None

    def body() -> None:
        nonlocal bundle
        prep = Operation("prepare_seed")
        ops.append(prep)
        try:
            bundle = experiments.prepare_seed(config, seed)
        except SegxferError as exc:
            prep.problems.append(f"raised {exc!r}")
            return
        for variant, p_t in workload.finetunes:
            op = Operation(f"finetune_variant[{variant},{p_t}]")
            ops.append(op)
            t0, e0 = len(rec.train_calls), len(rec.eval_calls)
            try:
                op.result = experiments.finetune_variant(bundle, config, variant, p_t)
            except SegxferError as exc:
                op.problems.append(f"raised {exc!r}")
            op.train_range = (t0, len(rec.train_calls))
            op.eval_range = (e0, len(rec.eval_calls))

    rec.install(patches)
    (install_layer_spans if traced else install_stage_spans)(tracer, patches)
    try:
        start = perf_counter()
        tracer.run(ROOT_SPAN, body)
        seed_s = perf_counter() - start
    finally:
        patches.restore()

    out = SeedOutcome(seed=seed, seed_s=seed_s, operations=ops)
    if bundle is not None:
        _check(out, bundle, config, rec, recheck)
        _stage_times(out, tracer, rec, config)
    if traced:
        if bundle is not None:
            tracer.counters["transferability.pad"] = bundle.pad.distance
            tracer.counters["transferability.disc_held_acc"] = bundle.disc.log.epoch_accuracies[-1]
        out.layers = layer_metrics(tracer.spans, tracer.counters)
        out.tracer = tracer
    return out


def _check(out: SeedOutcome, bundle, config: RunConfig, rec: Recorder,
           recheck: bool) -> None:
    prep, finetunes = out.operations[0], out.operations[1:]
    if not _finite(bundle.source_losses):
        prep.problems.append("non-finite source pretrain loss")
    if not (_finite([bundle.pad.distance, bundle.pad_grid.distance])
            and _finite(bundle.disc.log.epoch_losses + bundle.disc_grid.log.epoch_losses)):
        prep.problems.append("non-finite discriminator loss or PAD")
    try:
        auc = region_auc(bundle)
    except SegxferError as exc:
        prep.problems.append(f"region AUC raised {exc!r}")
    else:
        if not 0.0 <= auc <= 1.0:
            prep.problems.append(f"region AUC {auc} outside [0, 1]")
        out.quality["region_auc"] = auc

    first_picks = None
    for op in finetunes:
        if op.result is None:
            continue
        r = op.result
        train_calls = rec.train_calls[slice(*op.train_range)]
        eval_calls = rec.eval_calls[slice(*op.eval_range)]
        if len(train_calls) != 1 or len(eval_calls) != 1:
            op.problems.append(f"{len(train_calls)} train and {len(eval_calls)} "
                               "evaluate calls, expected one each")
            continue
        picks, losses = train_calls[0]
        if not _finite(losses):
            op.problems.append("non-finite fine-tune loss")
        if first_picks is None:
            first_picks = picks
        elif picks != first_picks:
            op.problems.append("batch indices differ from the first variant's")
        if not _finite([r.miou, r.macc, r.pad, r.fallback_rate]):
            op.problems.append("non-finite metric")
        if not 0.0 <= r.miou <= 1.0:
            op.problems.append(f"mIoU {r.miou} outside [0, 1]")
        args, kwargs, labels = eval_calls[0]
        if any(lab.min() < 0 or lab.max() >= config.num_classes for lab in labels):
            op.problems.append(f"decoded labels outside [0, {config.num_classes})")
        if recheck and op is finetunes[0]:
            again = rec.evaluate(*args, **kwargs)[2]
            if len(again) != len(labels) or any(
                    not np.array_equal(a.labels, b) for a, b in zip(again, labels)):
                op.problems.append("second evaluate_variant gave different labels")
        if r.variant == "tmt" and r.p_t == config.p_t:
            out.quality["miou_tmt"] = r.miou
        if r.variant == "vanilla":
            out.quality["miou_vanilla"] = r.miou


def _stage_times(out: SeedOutcome, tracer: Tracer, rec: Recorder, config: RunConfig) -> None:
    prepare_idx = None
    out.pretrain_s = 0.0
    for idx, (name, start, end, parent) in enumerate(tracer.spans):
        if name == "experiments.prepare_seed":
            prepare_idx = idx
            out.prepare_s = end - start
        elif name == "segmodel.train":
            out.train_s += end - start
            if parent == prepare_idx:
                out.pretrain_s += end - start
        elif name == "experiments.evaluate_variant":
            out.eval_s += end - start
    out.train_images = sum(len(picks) for picks, _ in rec.train_calls)
    out.eval_images = sum(len(labels) for _, _, labels in rec.eval_calls)
    out.acte_images = config.source_count + config.target_count
