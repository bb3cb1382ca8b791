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
