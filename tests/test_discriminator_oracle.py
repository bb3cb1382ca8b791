"""``train_discriminator`` against the loop it replaced: fresh parameter
arrays from a per-array AdamW every step, rebuilt into an ``MlpParams``.
The flat-vector loop must give bitwise the same parameters and logs."""

import numpy as np
import pytest

from adamw_oracle import ListAdamWState, list_adamw_step
from segxfer import numkit
from segxfer import transferability as tr


def oracle_train_discriminator(source, target, epochs, lr, seed, hidden, batch_size):
    """The per-array loop, returning (params, epoch_losses, epoch_accuracies)."""
    rng = np.random.default_rng(seed)
    src_train, src_held = tr._split_train_held(source, rng)
    tgt_train, tgt_held = tr._split_train_held(target, rng)

    params = numkit.init_mlp(source.shape[1], hidden, rng)
    shapes = [a.shape for a in params.param_list()]
    state = ListAdamWState.for_params(params.param_list(), lr=lr)

    half = max(1, batch_size // 2)
    steps_per_epoch = max(1, (src_train.shape[0] + tgt_train.shape[0]) // (2 * half))
    held_x = np.vstack([src_held, tgt_held])

    epoch_losses, epoch_accuracies = [], []
    for _ in range(epochs):
        losses = []
        for _ in range(steps_per_epoch):
            si = rng.integers(0, src_train.shape[0], size=half)
            ti = rng.integers(0, tgt_train.shape[0], size=half)
            x = np.vstack([src_train[si], tgt_train[ti]])
            y = np.concatenate([np.ones(half), np.zeros(half)])
            loss, grads = numkit.mlp_loss_and_grads(params, x, y)
            new = list_adamw_step(state, params.param_list(),
                                  numkit.flat_views(grads, shapes))
            params = numkit.mlp_params_from_list(new)
            losses.append(loss)
        epoch_losses.append(float(np.mean(losses)))
        epoch_accuracies.append(tr._balanced_accuracy(params, held_x, src_held.shape[0]))
    return params, epoch_losses, epoch_accuracies


def domains(seed, n_source, n_target, d, separation):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(n_source, d)) + separation / 2.0,
            rng.normal(size=(n_target, d)) - separation / 2.0)


CASES = [
    # seed, n_source, n_target, d, separation, epochs, lr, hidden, batch
    (0, 120, 90, 8, 1.0, 3, 1e-3, (64, 64), 16),
    (1, 40, 60, 4, 0.0, 4, 1e-2, (8,), 4),
    (2, 30, 30, 16, 3.0, 2, 5e-3, (12, 6, 3), 7),
    (3, 5, 9, 3, 0.5, 5, 1e-3, (), 2),
]


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"seed{c[0]}")
def test_flat_vector_loop_is_bitwise_equal_to_per_array_loop(case):
    seed, n_source, n_target, d, separation, epochs, lr, hidden, batch = case
    source, target = domains(seed, n_source, n_target, d, separation)
    got = tr.train_discriminator(source, target, epochs=epochs, lr=lr, seed=seed + 10,
                                 hidden=hidden, batch_size=batch)
    params, losses, accuracies = oracle_train_discriminator(
        source, target, epochs, lr, seed + 10, hidden, batch)
    assert got.log.epoch_losses == losses
    assert got.log.epoch_accuracies == accuracies
    assert len(got.params.param_list()) == len(params.param_list())
    for a, b in zip(got.params.param_list(), params.param_list()):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_returned_params_do_not_alias_a_later_run():
    source, target = domains(5, 50, 50, 6, 1.0)
    first = tr.train_discriminator(source, target, epochs=2, seed=3)
    assert all(a.base is None for a in first.params.param_list())  # no view of a shared buffer
    reference = [a.copy() for a in first.params.param_list()]
    for a in first.params.param_list():
        a[...] = np.nan
    second = tr.train_discriminator(source, target, epochs=2, seed=3)
    for a, b in zip(second.params.param_list(), reference):
        assert a.tobytes() == b.tobytes()
    assert second.log.epoch_losses == first.log.epoch_losses
