import numpy as np
import pytest

from segxfer.errors import InputError
from segxfer.experiments import ConfusionMatrix


def test_confusion_matrix_counts_pairs():
    cm = ConfusionMatrix.empty(3)
    cm.add(np.array([[0, 1], [2, 2]]), np.array([[0, 2], [2, 1]]))
    assert cm.counts.tolist() == [[1, 0, 0], [0, 0, 1], [0, 1, 1]]


def test_confusion_matrix_rejects_empty_label_maps():
    cm = ConfusionMatrix.empty(3)
    with pytest.raises(InputError):
        cm.add(np.zeros((0, 4), dtype=int), np.zeros((0, 4), dtype=int))
    assert cm.total == 0
