import hashlib

import numpy as np
import pytest

from segxfer import experiments
from segxfer.errors import InputError
from segxfer.experiments import ConfusionMatrix
from segxfer.runconfig import RunConfig


def test_confusion_matrix_counts_pairs():
    cm = ConfusionMatrix.empty(3)
    cm.add(np.array([[0, 1], [2, 2]]), np.array([[0, 2], [2, 1]]))
    assert cm.counts.tolist() == [[1, 0, 0], [0, 0, 1], [0, 1, 1]]


def test_confusion_matrix_rejects_empty_label_maps():
    cm = ConfusionMatrix.empty(3)
    with pytest.raises(InputError):
        cm.add(np.zeros((0, 4), dtype=int), np.zeros((0, 4), dtype=int))
    assert cm.total == 0


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

TINY = dict(height=16, width=16, source_count=6, target_count=6, eval_count=4,
            source_steps=6, finetune_steps=6, batch_size=2, disc_epochs=2, seeds=(0, 1, 2))
HEADER = "variant,seed,p_T,miou,macc,pad,fallback_rate"


@pytest.fixture(scope="module")
def tiny_report():
    return experiments.run_ablation(RunConfig(**TINY))


def test_run_ablation_one_row_per_variant_per_seed(tiny_report):
    rows = [(r.variant, r.seed) for r in tiny_report.rows]
    assert rows == [(v, s) for s in TINY["seeds"] for v in experiments.VARIANTS]
    for r in tiny_report.rows:
        assert 0.0 <= r.miou <= 1.0 and 0.0 <= r.macc <= 1.0
        assert r.p_t == RunConfig().p_t
        assert len(r.train_losses) == TINY["finetune_steps"]
        assert np.all(np.isfinite(r.train_losses))
    assert tiny_report.config == RunConfig(**TINY).to_dict()


def test_report_csv_header_and_footer(tiny_report):
    lines = experiments.report_csv(tiny_report).splitlines()
    assert lines[0] == HEADER
    assert len(lines) == 1 + len(tiny_report.rows)
    assert all(len(line.split(",")) == 7 for line in lines[1:])
    with_footer = experiments.report_csv(tiny_report, footer=True).splitlines()
    assert with_footer[:-1] == lines
    assert with_footer[-1] == "# default p_T: 30"


def test_variants_train_with_the_same_seed_and_items(monkeypatch):
    config = RunConfig(**dict(TINY, finetune_steps=2))
    bundle = experiments.prepare_seed(config, 0)
    calls = []
    train = experiments.train

    def recorded(params, items, **kwargs):
        calls.append((kwargs["seed"], kwargs["steps"], len(items)))
        return train(params, items, **kwargs)

    monkeypatch.setattr(experiments, "train", recorded)
    for variant in experiments.VARIANTS:
        experiments.finetune_variant(bundle, config, variant)
    assert len(calls) == len(experiments.VARIANTS)
    assert len(set(calls)) == 1
    assert calls[0][2] == config.target_count


# The clutter scenario: noisier, less separable data where mIoU is not
# saturated.
CLUTTER = dict(sigma=0.5, noise_scales=(1.0, 1.0, 1.0, 4.0), camouflage_classes=(1,))


def _sha256(report):
    return hashlib.sha256(experiments.report_csv(report, footer=True).encode()).hexdigest()


def test_tiny_report_csv_bytes_are_pinned(tiny_report):
    assert _sha256(tiny_report) == (
        "59b7803b1a591a0a5f2324e2224d1e0f34a8bfd0125200816bbf6b341fb2d107")


def test_tiny_clutter_report_csv_bytes_are_pinned():
    report = experiments.run_ablation(RunConfig(**TINY, **CLUTTER))
    assert _sha256(report) == (
        "3364aa8cb1f91cb90983b3a2d978f4e0177fb72e907779469b0e58cc79c29f1b")


def test_tiny_clutter_sweep_csv_bytes_are_pinned():
    report = experiments.sweep_pt(RunConfig(**TINY, **CLUTTER), p_values=(10, 30, 50))
    assert _sha256(report) == (
        "b41cf659c62fb3ef8768622e8fc300be5ae6169399042e0ec50c3620f092f4a8")


def test_grid_branch_is_built_on_first_use(monkeypatch):
    config = RunConfig(**dict(TINY, finetune_steps=2))
    seeds = []
    train_discriminator = experiments.train_discriminator

    def counted(*args, **kwargs):
        seeds.append(kwargs["seed"])
        return train_discriminator(*args, **kwargs)

    monkeypatch.setattr(experiments, "train_discriminator", counted)
    bundle = experiments.prepare_seed(config, 0)
    assert len(seeds) == 1
    for variant in ("tmt", "no_tma", "vanilla"):
        experiments.finetune_variant(bundle, config, variant)
    assert len(seeds) == 1
    first = experiments.finetune_variant(bundle, config, "no_acte")
    assert len(seeds) == 2
    second = experiments.finetune_variant(bundle, config, "no_acte")
    assert len(seeds) == 2
    assert seeds[1] == seeds[0] + experiments._DISC_SEED_OFFSET
    assert (first.miou, first.pad, first.train_losses) == (
        second.miou, second.pad, second.train_losses)

    # Built right after prepare_seed, the branch is the same.
    eager = experiments.prepare_seed(config, 0)
    eager_disc, eager_pad = eager.disc_grid, eager.pad_grid
    assert len(seeds) == 4
    assert eager_pad == bundle.pad_grid
    assert eager_disc.log == bundle.disc_grid.log
    assert eager_disc.provenance == bundle.disc_grid.provenance
    for a, b in zip(eager_disc.params.param_list(), bundle.disc_grid.params.param_list()):
        assert a.tobytes() == b.tobytes()
    for a, b in zip(eager.grid.target_tmaps, bundle.grid.target_tmaps):
        assert a.pixel.tobytes() == b.pixel.tobytes()
