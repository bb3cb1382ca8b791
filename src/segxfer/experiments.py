"""Segmentation metrics, the ablation harness, and the percentile-threshold
sweep.

The harness runs the full desk-scale protocol per seed: generate both
domains, cluster, train the domain discriminator, pretrain a source model,
then fine-tune each variant of ``VARIANT_TABLE`` on the target domain.

Every variant starts from the same source checkpoint and consumes identical
batch sequences, so metric differences isolate the mechanism under test.

A run has one ``RunConfig``: it names the seeds, and each seed's
``SeedBundle`` keeps it for that seed's fine-tunes and evaluations.
"""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .adaptive_cluster import ClusterState, cell_layout, cluster, init_grid
from .errors import InputError, ShapeError
from .runconfig import RunConfig
from .segmodel import (
    SegModelParams,
    SegPrediction,
    TrainItem,
    forward,
    init_seg_model,
    key_mask,
    train,
)
from .synthdata import LabeledImage, SOURCE, TARGET, generate
from .transferability import (
    DiscriminatorResult,
    PadEstimate,
    TransferabilityMap,
    build_transferability_map,
    train_discriminator,
)


@dataclass(frozen=True)
class Variant:
    """One ablation row: the region source whose discriminator scores the
    variant and whose PAD it reports, and how it uses that source's T-map."""

    regions: str       # "adaptive" or "grid"
    use_t: str | None  # "gate" the attention, "weight" the loss, or None


VARIANT_TABLE = MappingProxyType({
    # adaptive regions + transferability-gated masked attention
    "tmt": Variant("adaptive", "gate"),
    # regular-grid regions (no iterative refinement) + gated attention
    "no_acte": Variant("grid", "gate"),
    # adaptive regions, but T only reweights the loss (w = 1 + (1 - T));
    # attention is not gated by it
    "no_tma": Variant("adaptive", "weight"),
    # the mask-probability gate (p <= lambda_m) with the transferability
    # condition off; not plain attention, which ``lambda_m = 1.0`` gives
    # (every key admitted).  It reports the adaptive branch's PAD.
    "vanilla": Variant("adaptive", None),
})
VARIANTS = tuple(VARIANT_TABLE)

# substream tags so every phase of a seeded run draws independent randomness
_MODEL_INIT_STREAM = 101
_SOURCE_TRAIN_STREAM = 102
_FINETUNE_STREAM = 103
_DISC_SEED_OFFSET = 7919
# A region source's discriminator is seeded at seed + step * _DISC_SEED_OFFSET,
# so its branch is the same whenever it is built.
_DISC_SEED_STEP = {"adaptive": 1, "grid": 2}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def confusion_matrix(truth: np.ndarray, pred: np.ndarray, num_classes: int) -> np.ndarray:
    """(k, k) pixel counts of two label maps of any one shape: rows are
    ground truth, columns are predictions."""
    truth = np.asarray(truth).reshape(-1)
    pred = np.asarray(pred).reshape(-1)
    k = num_classes
    if truth.shape != pred.shape:
        raise InputError("label maps differ in size")
    if truth.size == 0:
        raise InputError("label maps are empty")
    if truth.dtype.kind not in "ui" or pred.dtype.kind not in "ui":
        raise InputError(f"label maps must be integer, got {truth.dtype} and {pred.dtype}")
    if truth.min() < 0 or truth.max() >= k or pred.min() < 0 or pred.max() >= k:
        raise InputError(f"labels outside [0, {k})")
    pairs = truth.astype(np.intp) * k + pred
    return np.bincount(pairs, minlength=k * k).reshape(k, k)


def per_class_iou(cm: np.ndarray) -> np.ndarray:
    """IoU per class of a ``confusion_matrix``; NaN where the class is absent
    from truth and prediction."""
    if cm.sum() == 0:
        raise InputError("empty confusion matrix")
    tp = np.diag(cm).astype(float)
    fn = cm.sum(axis=1) - tp
    fp = cm.sum(axis=0) - tp
    denom = tp + fp + fn
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(denom > 0, tp / denom, np.nan)


def miou(cm: np.ndarray) -> float:
    """Mean IoU over classes present in truth or prediction."""
    ious = per_class_iou(cm)
    return float(np.nanmean(ious))


def macc(cm: np.ndarray) -> float:
    """Mean per-class recall over classes present in the ground truth."""
    if cm.sum() == 0:
        raise InputError("empty confusion matrix")
    tp = np.diag(cm).astype(float)
    support = cm.sum(axis=1)
    present = support > 0
    return float(np.mean(tp[present] / support[present]))


def rank_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC of finite scores against as many 0/1 labels, ties
    averaged."""
    scores = np.asarray(scores, dtype=float).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    if (scores.shape != labels.shape or not np.all(np.isfinite(scores))
            or not np.all((labels == 0) | (labels == 1))):
        raise InputError("AUC needs finite scores and as many labels, each 0 or 1")
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
    """Majority ground-truth transferability bit per region, -1 if empty.

    A region whose pixels split evenly rounds half to even, to 0.
    """
    labels = state.hard_labels
    flat_bits = image.transfer_bits.reshape(-1)
    if labels.shape != (state.height * state.width,) or flat_bits.shape != labels.shape:
        raise ShapeError("hard labels and transfer bits do not cover the image")
    counts = np.bincount(labels, minlength=state.num_regions)
    ones = np.bincount(labels, weights=flat_bits, minlength=state.num_regions)
    out = np.full(state.num_regions, -1, dtype=int)
    filled = counts > 0
    out[filled] = np.round(ones[filled] / counts[filled])
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
    config: dict  # the run's ``RunConfig.to_dict()``


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
        buf.write(f"# default p_T: {report.config['p_t']:g}\n")
    return buf.getvalue()


@dataclass
class RegionBranch:
    """One region source's target regions, the discriminator trained on both
    domains' regions (with its PAD), and the target regions' T-maps."""

    target_states: list[ClusterState]
    disc: DiscriminatorResult
    target_tmaps: list[TransferabilityMap]


def _regions(config: RunConfig, source: str, img: LabeledImage) -> ClusterState:
    if source == "adaptive":
        return cluster(img.fm, config.r, tau=config.tau, iters=config.cluster_iters)
    return init_grid(cell_layout(img.fm, config.r))


def _region_branch(config: RunConfig, seed: int, source: str,
                   source_images: list[LabeledImage], target_images: list[LabeledImage]
                   ) -> RegionBranch:
    """The branch of one region source over both domains' images."""
    source_states = [_regions(config, source, img) for img in source_images]
    target_states = [_regions(config, source, img) for img in target_images]
    disc = train_discriminator(
        np.vstack([s.centers for s in source_states]),
        np.vstack([s.centers for s in target_states]),
        epochs=config.disc_epochs, lr=config.disc_lr,
        seed=seed + _DISC_SEED_STEP[source] * _DISC_SEED_OFFSET,
        hidden=config.disc_hidden, batch_size=config.disc_batch)
    return RegionBranch(
        target_states, disc, [build_transferability_map(disc.params, s) for s in target_states])


@dataclass
class SeedBundle:
    """Everything one seed's variants share: the run's one config, which
    every phase reads, data, the region branches and the pretrained source
    model.  Each branch holds its own target regions.  The grid branch is
    built on first use, so a seed that runs no grid variant never trains its
    discriminator."""

    config: RunConfig
    seed: int
    source_images: list[LabeledImage]
    target_images: list[LabeledImage]
    eval_images: list[LabeledImage]
    adaptive: RegionBranch
    source_params: SegModelParams
    source_losses: list[float] = field(default_factory=list)

    @functools.cached_property
    def grid(self) -> RegionBranch:
        return _region_branch(self.config, self.seed, "grid",
                              self.source_images, self.target_images)

    def branch(self, source: str) -> RegionBranch:
        return self.adaptive if source == "adaptive" else self.grid

    @property
    def target_states(self) -> list[ClusterState]:
        return self.adaptive.target_states

    @property
    def target_tmaps(self) -> list[TransferabilityMap]:
        return self.adaptive.target_tmaps

    @property
    def disc(self) -> DiscriminatorResult:
        return self.adaptive.disc

    @property
    def pad(self) -> PadEstimate:
        return self.adaptive.disc.pad

    @property
    def disc_grid(self) -> DiscriminatorResult:
        return self.grid.disc

    @property
    def pad_grid(self) -> PadEstimate:
        return self.grid.disc.pad


def prepare_seed(config: RunConfig, seed: int) -> SeedBundle:
    """Generate data, build the adaptive region branch, and pretrain the
    source model for one seed."""
    synth = config.synth_config(seed)
    source_images = generate(synth, config.source_count, SOURCE)
    target_images = generate(synth, config.target_count, TARGET)
    eval_images = generate(synth, config.eval_count, TARGET, stream=1)
    adaptive = _region_branch(config, seed, "adaptive", source_images, target_images)

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
        adaptive=adaptive,
        source_params=source_params,
        source_losses=source_losses,
    )


def _p_t(config: RunConfig, p_t: float | None) -> float:
    """The percentile a run gates at: ``config.p_t`` for None.  Raises
    InputError outside [0, 100] or for NaN, for every variant, so no row
    records a p_T that a gate would reject."""
    p = config.p_t if p_t is None else float(p_t)
    if not 0.0 <= p <= 100.0:
        raise InputError(f"p_T {p_t} must be a percentile in [0, 100]")
    return p


def _variant(name: str) -> Variant:
    if name not in VARIANT_TABLE:
        raise InputError(f"unknown variant {name!r}")
    return VARIANT_TABLE[name]


def _t_inputs(variant: Variant, tmap: TransferabilityMap, p_t: float) -> dict:
    """The ``TrainItem`` fields through which a variant uses a T-map."""
    if variant.use_t == "gate":
        return {"key_mask": key_mask(tmap.pixel, p_t)}
    if variant.use_t == "weight":
        return {"pixel_weights": 1.0 + (1.0 - tmap.pixel.reshape(-1))}
    return {}


def evaluate_variant(params: SegModelParams, bundle: SeedBundle, variant: str,
                     p_t: float) -> tuple[np.ndarray, float, list[SegPrediction]]:
    """Confusion matrix over all held-out pixels, the mean fallback rate and
    the predictions of one ``forward`` call over every held-out image, gated
    for a gate row at p_t by its discriminator's T-map of its regions of each.
    Every setting comes from ``bundle.config``, so the held-out images are
    clustered as the discriminator's inputs were."""
    config = bundle.config
    p_t = _p_t(config, p_t)
    row = _variant(variant)
    images = bundle.eval_images
    key_masks = None
    if row.use_t == "gate":
        disc = bundle.branch(row.regions).disc.params
        key_masks = [key_mask(build_transferability_map(
            disc, _regions(config, row.regions, img)).pixel, p_t) for img in images]
    predictions = forward(params, [img.fm for img in images], key_masks,
                          lambda_m=config.lambda_m)
    cm = confusion_matrix(np.stack([img.labels for img in images]),
                          np.stack([p.labels for p in predictions]), config.num_classes)
    return cm, float(np.mean([p.fallback_rate for p in predictions])), predictions


def finetune_variant(bundle: SeedBundle, config: RunConfig, variant: str,
                     p_t: float | None = None) -> VariantResult:
    """Fine-tune one variant from the shared source checkpoint and score it.

    All variants draw identical batch indices (same fine-tune seed), so they
    differ only in the mechanism being ablated.  Every setting comes from
    ``bundle.config``; ``config`` must equal it (InputError before training
    otherwise) and is kept only for callers that pass it positionally.
    """
    if config != bundle.config:
        raise InputError("config differs from the config the bundle was prepared with")
    effective_p = _p_t(config, p_t)
    row = _variant(variant)
    branch = bundle.branch(row.regions)
    items = [TrainItem(img.fm, img.labels, **_t_inputs(row, tmap, effective_p))
             for img, tmap in zip(bundle.target_images, branch.target_tmaps)]
    ft_seed = int(np.random.default_rng([bundle.seed, _FINETUNE_STREAM]).integers(2**31))
    tuned, losses = train(
        bundle.source_params, items, steps=config.finetune_steps,
        batch_size=config.batch_size, lr=config.model_lr, seed=ft_seed,
        lambda_m=config.lambda_m)
    cm, fallback_rate, _ = evaluate_variant(tuned, bundle, variant, effective_p)
    ious = per_class_iou(cm)
    return VariantResult(
        variant=variant,
        seed=bundle.seed,
        p_t=effective_p,
        miou=miou(cm),
        macc=macc(cm),
        per_class_iou=[float(v) for v in ious],
        pad=branch.disc.pad.distance,
        fallback_rate=fallback_rate,
        train_losses=losses,
    )


def run_ablation(config: RunConfig) -> ExperimentReport:
    """Every variant of ``VARIANT_TABLE`` over ``config.seeds`` (at least 3)."""
    if len(config.seeds) < 3:
        raise InputError(f"ablation needs at least 3 seeds, got {len(config.seeds)}")
    return _run(config, [(variant, None) for variant in VARIANTS])


def sweep_pt(config: RunConfig, p_values: tuple[float, ...] = (10, 20, 30, 40, 50)
             ) -> ExperimentReport:
    """Fine-tune the gated model once per percentile value per seed of
    ``config.seeds``."""
    if not p_values:
        raise InputError("p_values must be non-empty")
    return _run(config, [("tmt", p) for p in p_values])


def _run(config: RunConfig, runs: list[tuple[str, float | None]]) -> ExperimentReport:
    """One ``prepare_seed`` per seed of ``config.seeds``, then one
    ``finetune_variant`` per (variant, p_T).  Every p_T is checked, and a
    repeated (variant, p_T) rejected, before the first seed runs."""
    runs = [(variant, _p_t(config, p_t)) for variant, p_t in runs]
    if len(set(runs)) != len(runs):
        raise InputError(f"runs {runs} repeat a (variant, p_T) pair")
    rows = []
    for seed in config.seeds:
        bundle = prepare_seed(config, seed)
        rows += [finetune_variant(bundle, config, variant, p_t) for variant, p_t in runs]
    return ExperimentReport(rows=rows, config=config.to_dict())
