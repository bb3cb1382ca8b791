"""Segmentation metrics, the four-variant ablation harness, and the
percentile-threshold sweep.

The harness runs the full desk-scale protocol per seed: generate both
domains, cluster, train the domain discriminator, pretrain a source model,
then fine-tune four variants on the target domain:

  tmt      adaptive regions + transferability-gated masked attention
  no_acte  regular-grid regions (no iterative refinement) + gated attention
  no_tma   adaptive regions, but transferability only reweights the loss
           (w = 1 + (1 - T)); attention is not gated by it
  vanilla  the mask-probability gate (p <= lambda_m) with the
           transferability condition off; not plain attention, which
           ``lambda_m = 1.0`` gives (every key admitted)

The grid-region branch (grid states, their discriminator, PAD and T-maps) is
read only by ``no_acte`` and is built the first time something reads it.

Every variant starts from the same source checkpoint and consumes identical
batch sequences, so metric differences isolate the mechanism under test.
"""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass, field

import numpy as np

from .adaptive_cluster import ClusterState, cluster, init_grid, region_pixel_lists
from .errors import InputError
from .runconfig import RunConfig
from .segmodel import (
    SegModelParams,
    SegPrediction,
    TrainItem,
    forward,
    init_seg_model,
    train,
)
from .synthdata import LabeledImage, SOURCE, TARGET, generate
from .transferability import (
    DiscriminatorResult,
    PadEstimate,
    TransferabilityMap,
    build_transferability_map,
    compute_pad,
    train_discriminator,
)

VARIANTS = ("tmt", "no_acte", "no_tma", "vanilla")

# substream tags so every phase of a seeded run draws independent randomness
_MODEL_INIT_STREAM = 101
_SOURCE_TRAIN_STREAM = 102
_FINETUNE_STREAM = 103
_DISC_SEED_OFFSET = 7919


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


@dataclass
class ConfusionMatrix:
    """Rows are ground truth, columns are predictions."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise InputError(f"confusion matrix must be square, got {self.counts.shape}")
        if np.any(self.counts < 0):
            raise InputError("confusion matrix counts must be non-negative")

    @classmethod
    def empty(cls, num_classes: int) -> "ConfusionMatrix":
        return cls(np.zeros((num_classes, num_classes), dtype=np.int64))

    def add(self, truth: np.ndarray, pred: np.ndarray) -> None:
        truth = np.asarray(truth).reshape(-1)
        pred = np.asarray(pred).reshape(-1)
        k = self.counts.shape[0]
        if truth.shape != pred.shape:
            raise InputError("label maps differ in size")
        if truth.size == 0:
            raise InputError("label maps are empty")
        if truth.min() < 0 or truth.max() >= k or pred.min() < 0 or pred.max() >= k:
            raise InputError(f"labels outside [0, {k})")
        np.add.at(self.counts, (truth, pred), 1)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def per_class_iou(cm: ConfusionMatrix) -> np.ndarray:
    """IoU per class; NaN where the class is absent from truth and prediction."""
    if cm.total == 0:
        raise InputError("empty confusion matrix")
    tp = np.diag(cm.counts).astype(float)
    fn = cm.counts.sum(axis=1) - tp
    fp = cm.counts.sum(axis=0) - tp
    denom = tp + fp + fn
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(denom > 0, tp / denom, np.nan)


def miou(cm: ConfusionMatrix) -> float:
    """Mean IoU over classes present in truth or prediction."""
    ious = per_class_iou(cm)
    return float(np.nanmean(ious))


def macc(cm: ConfusionMatrix) -> float:
    """Mean per-class recall over classes present in the ground truth."""
    if cm.total == 0:
        raise InputError("empty confusion matrix")
    tp = np.diag(cm.counts).astype(float)
    support = cm.counts.sum(axis=1)
    present = support > 0
    return float(np.mean(tp[present] / support[present]))


def rank_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC of scores against binary labels, ties averaged."""
    scores = np.asarray(scores, dtype=float).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if pos.size == 0 or neg.size == 0:
        raise InputError("AUC needs both positive and negative examples")
    combined = np.concatenate([pos, neg])
    _, inverse, counts = np.unique(combined, return_inverse=True, return_counts=True)
    high = np.cumsum(counts)
    avg_rank = (high - counts + 1 + high) / 2.0
    ranks = avg_rank[inverse]
    u = ranks[:pos.size].sum() - pos.size * (pos.size + 1) / 2.0
    return float(u / (pos.size * neg.size))


def region_truth_bits(state: ClusterState, image: LabeledImage) -> np.ndarray:
    """Majority ground-truth transferability bit per region, -1 if empty."""
    flat_bits = image.transfer_bits.reshape(-1)
    out = np.full(state.num_regions, -1, dtype=int)
    for i, pixels in enumerate(region_pixel_lists(state)):
        if len(pixels):
            out[i] = int(np.round(flat_bits[pixels].mean()))
    return out


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------


@dataclass
class VariantResult:
    variant: str
    seed: int
    p_t: float
    miou: float
    macc: float
    per_class_iou: list[float]
    pad: float
    fallback_rate: float
    train_losses: list[float] = field(default_factory=list)  # per fine-tune step


@dataclass
class ExperimentReport:
    rows: list[VariantResult]
    config: dict
    default_p_t: float


def report_csv(report: ExperimentReport, footer: bool = False) -> str:
    """Report rows in the fixed schema; optional footer notes the shipped
    percentile default."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["variant", "seed", "p_T", "miou", "macc", "pad", "fallback_rate"])
    for r in report.rows:
        writer.writerow([r.variant, r.seed, repr(float(r.p_t)), repr(r.miou),
                         repr(r.macc), repr(r.pad), repr(r.fallback_rate)])
    if footer:
        buf.write(f"# default p_T: {report.default_p_t:g}\n")
    return buf.getvalue()


@dataclass
class GridBranch:
    """What the ``no_acte`` variant reads: the discriminator trained on
    regular-grid regions, its PAD and the target images' grid T-maps."""

    disc: DiscriminatorResult
    pad: PadEstimate
    target_tmaps: list[TransferabilityMap]


@dataclass
class SeedBundle:
    """Everything one seed's variants share: data, regions, discriminators,
    transferability maps and the pretrained source model.

    The grid branch (``grid``, which ``disc_grid`` and ``pad_grid`` read) is
    built on first use, so a seed that runs no ``no_acte`` variant never
    trains the grid discriminator.  Its discriminator has its own seed and
    RNG, so the branch is the same whenever it is built.
    """

    config: RunConfig
    seed: int
    source_images: list[LabeledImage]
    target_images: list[LabeledImage]
    eval_images: list[LabeledImage]
    target_states: list[ClusterState]
    disc: DiscriminatorResult
    pad: PadEstimate
    target_tmaps: list[TransferabilityMap]
    source_params: SegModelParams
    source_losses: list[float] = field(default_factory=list)

    @functools.cached_property
    def grid(self) -> GridBranch:
        """The grid-region branch, built on first access."""
        config = self.config

        def grid_states(images: list[LabeledImage]) -> list[ClusterState]:
            return [init_grid(img.fm, config.r, tau=config.tau) for img in images]

        source_states = grid_states(self.source_images)
        target_states = grid_states(self.target_images)
        disc = train_discriminator(
            _region_features(source_states), _region_features(target_states),
            epochs=config.disc_epochs, lr=config.disc_lr,
            seed=self.seed + 2 * _DISC_SEED_OFFSET, hidden=config.disc_hidden,
            batch_size=config.disc_batch)
        return GridBranch(
            disc=disc,
            pad=compute_pad(disc.params, disc.held_out),
            target_tmaps=[build_transferability_map(disc.params, s, disc.provenance)
                          for s in target_states])

    @property
    def disc_grid(self) -> DiscriminatorResult:
        return self.grid.disc

    @property
    def pad_grid(self) -> PadEstimate:
        return self.grid.pad


def _region_features(states: list[ClusterState]) -> np.ndarray:
    return np.vstack([s.centers for s in states])


def prepare_seed(config: RunConfig, seed: int) -> SeedBundle:
    """Generate data, fit the adaptive regions and their discriminator, and
    pretrain the source model for one seed.

    The grid-region branch that only ``no_acte`` reads is not built here but
    on first use (``SeedBundle.grid``).
    """
    synth = config.synth_config(seed)
    source_images = generate(synth, config.source_count, SOURCE)
    target_images = generate(synth, config.target_count, TARGET)
    eval_images = generate(synth, config.eval_count, TARGET, stream=1)

    def refined(img: LabeledImage) -> ClusterState:
        return cluster(img.fm, config.r, tau=config.tau, iters=config.cluster_iters)

    source_states = [refined(img) for img in source_images]
    target_states = [refined(img) for img in target_images]

    disc = train_discriminator(
        _region_features(source_states), _region_features(target_states),
        epochs=config.disc_epochs, lr=config.disc_lr,
        seed=seed + _DISC_SEED_OFFSET, hidden=config.disc_hidden,
        batch_size=config.disc_batch)

    target_tmaps = [build_transferability_map(disc.params, s, disc.provenance)
                    for s in target_states]

    init_rng = np.random.default_rng([seed, _MODEL_INIT_STREAM])
    params = init_seg_model(
        config.channels, config.num_classes, init_rng,
        num_queries=config.num_queries, channels=config.model_channels,
        num_layers=config.decoder_layers, ffn_hidden=config.ffn_hidden)
    source_items = [TrainItem(img.fm, img.labels) for img in source_images]
    source_params, source_losses = train(
        params, source_items, steps=config.source_steps,
        batch_size=config.batch_size, lr=config.model_lr,
        seed=int(np.random.default_rng([seed, _SOURCE_TRAIN_STREAM]).integers(2**31)),
        lambda_m=config.lambda_m)

    return SeedBundle(
        config=config,
        seed=seed,
        source_images=source_images,
        target_images=target_images,
        eval_images=eval_images,
        target_states=target_states,
        disc=disc,
        pad=compute_pad(disc.params, disc.held_out),
        target_tmaps=target_tmaps,
        source_params=source_params,
        source_losses=source_losses,
    )


def _finetune_items(bundle: SeedBundle, variant: str) -> list[TrainItem]:
    items = []
    for i, img in enumerate(bundle.target_images):
        if variant == "tmt":
            items.append(TrainItem(img.fm, img.labels, tmap=bundle.target_tmaps[i]))
        elif variant == "no_acte":
            items.append(TrainItem(img.fm, img.labels, tmap=bundle.grid.target_tmaps[i]))
        elif variant == "no_tma":
            weights = 1.0 + (1.0 - bundle.target_tmaps[i].pixel.reshape(-1))
            items.append(TrainItem(img.fm, img.labels, pixel_weights=weights))
        elif variant == "vanilla":
            items.append(TrainItem(img.fm, img.labels))
        else:
            raise InputError(f"unknown variant {variant!r}")
    return items


def _eval_tmap(bundle: SeedBundle, config: RunConfig, variant: str,
               img: LabeledImage) -> TransferabilityMap | None:
    if variant == "tmt":
        state = cluster(img.fm, config.r, tau=config.tau, iters=config.cluster_iters)
        return build_transferability_map(bundle.disc.params, state)
    if variant == "no_acte":
        state = init_grid(img.fm, config.r, tau=config.tau)
        return build_transferability_map(bundle.disc_grid.params, state)
    return None


def evaluate_variant(params: SegModelParams, bundle: SeedBundle, config: RunConfig,
                     variant: str, p_t: float) -> tuple[ConfusionMatrix, float, list[SegPrediction]]:
    """Confusion matrix over all held-out pixels plus the mean fallback rate."""
    cm = ConfusionMatrix.empty(config.num_classes)
    fallback = []
    predictions = []
    for img in bundle.eval_images:
        tmap = _eval_tmap(bundle, config, variant, img)
        pred = forward(params, img.fm, tmap=tmap, lambda_m=config.lambda_m, p_t=p_t)
        cm.add(img.labels, pred.labels)
        fallback.append(pred.fallback_rate)
        predictions.append(pred)
    return cm, float(np.mean(fallback)), predictions


def finetune_variant(bundle: SeedBundle, config: RunConfig, variant: str,
                     p_t: float | None = None) -> VariantResult:
    """Fine-tune one variant from the shared source checkpoint and score it.

    All variants draw identical batch indices (same fine-tune seed), so they
    differ only in the mechanism being ablated.
    """
    effective_p = config.p_t if p_t is None else p_t
    items = _finetune_items(bundle, variant)
    ft_seed = int(np.random.default_rng([bundle.seed, _FINETUNE_STREAM]).integers(2**31))
    tuned, losses = train(
        bundle.source_params, items, steps=config.finetune_steps,
        batch_size=config.batch_size, lr=config.model_lr, seed=ft_seed,
        lambda_m=config.lambda_m, p_t=effective_p)
    cm, fallback_rate, _ = evaluate_variant(tuned, bundle, config, variant, effective_p)
    pad = bundle.pad_grid if variant == "no_acte" else bundle.pad
    ious = per_class_iou(cm)
    return VariantResult(
        variant=variant,
        seed=bundle.seed,
        p_t=effective_p,
        miou=miou(cm),
        macc=macc(cm),
        per_class_iou=[float(v) for v in ious],
        pad=pad.distance,
        fallback_rate=fallback_rate,
        train_losses=losses,
    )


def run_ablation(config: RunConfig, seeds: tuple[int, ...] | None = None) -> ExperimentReport:
    """Full four-variant ablation over the given seeds (at least 3)."""
    seeds = tuple(seeds if seeds is not None else config.seeds)
    if len(seeds) < 3:
        raise InputError(f"ablation needs at least 3 seeds, got {len(seeds)}")
    rows = []
    for seed in seeds:
        bundle = prepare_seed(config, seed)
        for variant in VARIANTS:
            rows.append(finetune_variant(bundle, config, variant))
    return ExperimentReport(rows=rows, config=config.to_dict(), default_p_t=config.p_t)


def sweep_pt(config: RunConfig, p_values: tuple[float, ...] = (10, 20, 30, 40, 50),
             seeds: tuple[int, ...] | None = None) -> ExperimentReport:
    """Fine-tune the gated model once per percentile value per seed."""
    if not p_values:
        raise InputError("p_values must be non-empty")
    seeds = tuple(seeds if seeds is not None else config.seeds)
    rows = []
    for seed in seeds:
        bundle = prepare_seed(config, seed)
        for p in p_values:
            rows.append(finetune_variant(bundle, config, "tmt", p_t=float(p)))
    return ExperimentReport(rows=rows, config=config.to_dict(), default_p_t=config.p_t)
