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


@pytest.mark.parametrize("name", ["height", "tau", "p_t", "source_steps"])
def test_bool_for_number_is_config_error(name):
    with pytest.raises(ConfigError):
        RunConfig.from_dict({name: True})
