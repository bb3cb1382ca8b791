"""``adaptive_cluster`` against ``cluster_oracle``, the per-round code it
replaced.  The cell layout and the geometry tables change where the work is
done, not what is computed: centers, assignment and hard labels, and each
round's similarity and assignment, must be bitwise equal."""

import numpy as np
import pytest

import cluster_oracle
from segxfer import adaptive_cluster as ac
from segxfer.runconfig import RunConfig
from segxfer.synthdata import TARGET, generate
from test_cluster_dense_oracle import GEOMETRIES, random_map

CLUTTER = dict(sigma=0.5, noise_scales=(1.0, 1.0, 1.0, 4.0), camouflage_classes=(1,))


def assert_matches_oracle(monkeypatch, fm, stride, tau=0.07, iters=6):
    state, rounds = cluster_oracle.traced_cluster(monkeypatch, fm, stride, tau, iters)
    expected, expected_rounds = cluster_oracle.cluster_rounds(fm, stride, tau, iters)
    got = (state.centers, rounds[-1][1], state.hard_labels)
    for name, a, b in zip(("centers", "assign", "hard_labels"), got, expected):
        assert np.array_equal(a, b), name
    assert len(rounds) == iters
    for i, ((sim, assign), (want_sim, want_assign)) in enumerate(zip(rounds, expected_rounds)):
        assert np.array_equal(sim, want_sim), f"similarity of round {i}"
        assert np.array_equal(assign, want_assign), f"assignment of round {i}"


@pytest.mark.parametrize("height,width,stride,channels", GEOMETRIES)
def test_cluster_matches_oracle(monkeypatch, height, width, stride, channels):
    fm = random_map(height, width, channels, seed=height * 100 + width + stride)
    for tau, iters in ((0.07, 6), (0.5, 3)):
        assert_matches_oracle(monkeypatch, fm, stride, tau, iters)


@pytest.mark.parametrize("height,width,stride,channels", GEOMETRIES)
def test_constant_image_ties_match_oracle(monkeypatch, height, width, stride, channels):
    fm = ac.FeatureMap(height, width, np.ones((height * width, channels)))
    for iters in (1, 6):
        assert_matches_oracle(monkeypatch, fm, stride, iters=iters)


@pytest.mark.parametrize("height,width,stride,channels", GEOMETRIES)
def test_init_grid_and_candidates_match_oracle(monkeypatch, height, width, stride, channels):
    fm = random_map(height, width, channels, seed=7 + height + width)
    state, assign = cluster_oracle.seeded_grid(monkeypatch, ac.cell_layout(fm, stride))
    expected = cluster_oracle.init_grid(fm, stride)
    got = (state.centers, assign, state.hard_labels)
    for name, a, b in zip(("centers", "assign", "hard_labels"), got, expected):
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("config", [RunConfig(**CLUTTER), RunConfig(height=96, width=96)],
                         ids=["clutter32", "hires96"])
def test_harness_images_match_oracle(monkeypatch, config):
    synth = config.synth_config(0)
    images = generate(synth, 2, TARGET) + generate(synth, 2, TARGET, stream=1)
    for img in images:
        assert_matches_oracle(monkeypatch, img.fm, config.r, config.tau, config.cluster_iters)


def test_cluster_calls_each_layer_function_through_the_module(monkeypatch):
    # perfbench times these functions by replacing the module attributes, so
    # cluster must look each one up there: init_grid once (which seeds the
    # centers with one update_centers), then the three round functions once
    # per round.
    calls = []

    def recording(name):
        fn = getattr(ac, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("init_grid", "compute_similarity", "soft_assign", "update_centers"):
        monkeypatch.setattr(ac, name, recording(name))
    iters = 4
    ac.cluster(random_map(12, 8, 4, seed=3), 4, iters=iters)
    assert calls == (["init_grid", "update_centers"]
                     + ["compute_similarity", "soft_assign", "update_centers"] * iters)


def test_cached_geometry_is_shared_and_read_only():
    layout = ac.cell_layout(random_map(8, 8, 3, seed=1), 4)
    assert layout.tables is ac.cell_layout(random_map(8, 8, 3, seed=2), 4).tables
    for table in vars(layout.tables).values():
        with pytest.raises(ValueError):
            table.reshape(-1)[0] = 0
