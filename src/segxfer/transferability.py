"""Domain discriminator training, per-region transferability scores, and the
proxy distance between the two domains.

A small MLP is trained to tell source region features (label 1) from target
region features (label 0) with balanced half/half batches.  A region's
transferability is the discriminator's confusion on it, 2*min(E, 1-E): 1
where domains are indistinguishable, 0 where the discriminator is certain.
Each epoch scores the held-out split with one forward; the proxy distance
2*(1 - 2*eps) is read off the last epoch's held-out balanced error eps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adaptive_cluster import ClusterState
from .errors import InputError
from .numkit import (
    AdamWState,
    MlpParams,
    adamw_step,
    flat_views,
    flatten,
    init_mlp,
    mlp_forward_batch,
    mlp_loss_and_grads,
    mlp_params_from_list,
)


@dataclass
class TrainingLog:
    epoch_losses: list[float]
    epoch_accuracies: list[float]


@dataclass
class PadEstimate:
    """Held-out balanced error and the proxy distance 2*(1 - 2*eps)."""

    epsilon: float
    distance: float

    @classmethod
    def from_accuracy(cls, accuracy: float) -> "PadEstimate":
        """eps = 1 - balanced accuracy; the distance is clamped to [-2, 2]."""
        epsilon = 1.0 - accuracy
        return cls(epsilon, float(np.clip(2.0 * (1.0 - 2.0 * epsilon), -2.0, 2.0)))


@dataclass
class DiscriminatorResult:
    params: MlpParams
    log: TrainingLog
    pad: PadEstimate  # the last epoch's held-out balanced error (one forward per epoch)


@dataclass
class TransferabilityMap:
    """Per-region scores plus their broadcast onto the pixel grid."""

    region_scores: np.ndarray  # (N_p,) in [0, 1]
    pixel: np.ndarray          # (H, W), piecewise constant on the region partition


def _split_train_held(features: np.ndarray,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Seeded 80/20 shuffle-split of one domain's features."""
    n = features.shape[0]
    if n < 2:
        raise InputError("need at least 2 samples per domain to hold out a split")
    perm = rng.permutation(n)
    cut = min(n - 1, max(1, int(round(0.8 * n))))
    return features[perm[:cut]], features[perm[cut:]]


def train_discriminator(
    source_regions: np.ndarray,
    target_regions: np.ndarray,
    epochs: int = 5,
    lr: float = 1e-3,
    seed: int = 0,
    hidden: tuple[int, ...] = (64, 64),
    batch_size: int = 16,
) -> DiscriminatorResult:
    """Train the domain discriminator on region features from both domains.

    Each batch is drawn half from source and half from target so supervision
    stays balanced.  Each domain is shuffle-split 80/20; the held-out 20%
    yields the per-epoch balanced accuracy, and the last one the PAD.
    Raises InputError for ``epochs < 1``, ``batch_size < 2`` or a hidden
    width below 1.
    """
    if epochs < 1 or batch_size < 2 or min(hidden, default=1) < 1:
        raise InputError(f"need epochs >= 1, batch_size >= 2 and hidden widths >= 1, "
                         f"got {epochs}, {batch_size} and {hidden}")
    source = np.atleast_2d(np.asarray(source_regions, dtype=float))
    target = np.atleast_2d(np.asarray(target_regions, dtype=float))
    if source.size == 0 or target.size == 0:
        raise InputError("both domains must contribute at least one region")
    if source.shape[1] != target.shape[1]:
        raise InputError(
            f"feature dims differ between domains: {source.shape[1]} vs {target.shape[1]}"
        )

    rng = np.random.default_rng(seed)
    src_train, src_held = _split_train_held(source, rng)
    tgt_train, tgt_held = _split_train_held(target, rng)

    # The optimizer owns one parameter vector; ``params`` views it.
    init = init_mlp(source.shape[1], hidden, rng).param_list()
    vector = flatten(init)
    params = mlp_params_from_list(flat_views(vector, [a.shape for a in init]))
    state = AdamWState.for_params(vector, lr=lr)

    half = batch_size // 2
    steps_per_epoch = max(1, (src_train.shape[0] + tgt_train.shape[0]) // (2 * half))
    held_x = np.vstack([src_held, tgt_held])
    y = np.concatenate([np.ones(half), np.zeros(half)])

    epoch_losses: list[float] = []
    epoch_accuracies: list[float] = []
    for _ in range(epochs):
        losses = []
        for _ in range(steps_per_epoch):
            si = rng.integers(0, src_train.shape[0], size=half)
            ti = rng.integers(0, tgt_train.shape[0], size=half)
            x = np.vstack([src_train[si], tgt_train[ti]])
            loss, grads = mlp_loss_and_grads(params, x, y)
            adamw_step(state, vector, grads)
            losses.append(loss)
        epoch_losses.append(float(np.mean(losses)))
        epoch_accuracies.append(_balanced_accuracy(params, held_x, src_held.shape[0]))

    return DiscriminatorResult(
        params=params.copy(),  # not the optimizer's buffer
        log=TrainingLog(epoch_losses, epoch_accuracies),
        pad=PadEstimate.from_accuracy(epoch_accuracies[-1]),
    )


def _balanced_accuracy(params: MlpParams, x: np.ndarray, n_source: int) -> float:
    """Mean of the per-domain accuracies on rows ``x``: the first ``n_source``
    are source (predicted source when E >= 0.5), the rest target."""
    pred = mlp_forward_batch(params, x) >= 0.5
    return 0.5 * (float(np.mean(pred[:n_source])) + float(np.mean(~pred[n_source:])))


def region_transferability_batch(params: MlpParams, region_features: np.ndarray) -> np.ndarray:
    """Confusion score 2*min(E, 1-E) per row: 1 when the discriminator cannot
    tell the domains apart on a region, 0 when it is certain."""
    probs = mlp_forward_batch(params, np.atleast_2d(region_features))
    return 2.0 * np.minimum(probs, 1.0 - probs)


def build_transferability_map(params: MlpParams, state: ClusterState) -> TransferabilityMap:
    """Score every region center and broadcast scores to pixels by hard label.

    The pixel map is piecewise constant on the region partition; regions with
    no assigned pixels keep their score but contribute nothing to the map.
    """
    scores = region_transferability_batch(params, state.centers)
    pixel = scores[state.hard_labels].reshape(state.height, state.width)
    return TransferabilityMap(region_scores=scores, pixel=pixel)
