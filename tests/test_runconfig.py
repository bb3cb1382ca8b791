import pytest

from segxfer.errors import ConfigError
from segxfer.runconfig import RunConfig

CLUTTER = dict(sigma=0.5, noise_scales=(1.0, 1.0, 1.0, 4.0), camouflage_classes=(1,))


@pytest.mark.parametrize("config", [RunConfig(), RunConfig(**CLUTTER)],
                         ids=["default", "clutter"])
def test_dict_round_trip(config):
    assert RunConfig.from_dict(config.to_dict()) == config


def test_unknown_key_is_config_error():
    doc = RunConfig().to_dict()
    doc["learning_rate"] = 0.1
    with pytest.raises(ConfigError):
        RunConfig.from_dict(doc)


@pytest.mark.parametrize("name, value", [
    ("height", True), ("tau", True), ("p_t", True), ("source_steps", True), ("seeds", [True]),
], ids=["height", "tau", "p_t", "source_steps", "seeds"])
def test_bool_for_number_is_config_error(name, value):
    with pytest.raises(ConfigError):
        RunConfig.from_dict({name: value})


@pytest.mark.parametrize("name, value", [
    ("r", 0),
    ("seeds", [1.5]),
    ("disc_hidden", [2.7]),
    ("noise_scales", ["a", 1.0, 1.0, 1.0]),
    ("shift_classes", ["x"]),
    ("height", float("nan")),
    ("out_dir", 3),
    ("tau", float("nan")),
    ("tau", 0),
    ("disc_lr", float("inf")),
    ("disc_lr", 0.0),
    ("model_lr", -1.0),
    ("sigma", float("nan")),
    ("noise_scales", [1, 1, 1, float("nan")]),
    ("height", 0),
    ("width", 0),
    ("cluster_iters", 0),
    ("num_queries", 0),
    ("num_queries", 3),
    ("model_channels", 0),
    ("decoder_layers", 0),
    ("ffn_hidden", 0),
    ("disc_hidden", [0]),
    ("disc_hidden", [64, -1]),
    ("seeds", []),
    ("seeds", [0, 0, 0]),
    ("seeds", [3, 1, 3]),
    ("seeds", [0, -1]),
    ("disc_batch", 1),
    ("disc_batch", 0),
], ids=["r_zero", "seeds_float", "disc_hidden_float", "noise_scales_string",
        "shift_classes_string", "height_nan", "out_dir_number", "tau_nan", "tau_zero",
        "disc_lr_inf", "disc_lr_zero", "model_lr_negative", "sigma_nan", "noise_scales_nan",
        "height_zero", "width_zero",
        "cluster_iters_zero", "num_queries_zero", "num_queries_below_classes",
        "model_channels_zero",
        "decoder_layers_zero", "ffn_hidden_zero", "disc_hidden_zero",
        "disc_hidden_negative", "seeds_empty", "seeds_one_repeated", "seeds_repeat",
        "seeds_negative", "disc_batch_one", "disc_batch_zero"])
def test_bad_value_is_config_error(name, value):
    with pytest.raises(ConfigError):
        RunConfig.from_dict({name: value})


@pytest.mark.parametrize("doc", [["height"], None, 5, "height"],
                         ids=["list", "null", "number", "string"])
def test_non_object_document_is_config_error(doc):
    with pytest.raises(ConfigError):
        RunConfig.from_dict(doc)


def test_integral_float_reads_as_int():
    config = RunConfig.from_dict({"height": 16.0, "seeds": [0.0, 1.0]})
    assert config.height == 16 and isinstance(config.height, int)
    assert config.seeds == (0, 1) and all(isinstance(s, int) for s in config.seeds)


def test_constructor_applies_the_same_checks():
    with pytest.raises(ConfigError):
        RunConfig(seeds=(1.5,))
    with pytest.raises(ConfigError):
        RunConfig(seeds=(0, 0, 0))
