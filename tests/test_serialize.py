import json

import numpy as np
import numpy.testing as npt
import pytest

from segxfer.errors import InputError
from segxfer.serialize import load_arrays, save_arrays


@pytest.fixture
def saved(tmp_path):
    """A two-array pair of files; returns (bin_path, json_path, manifest)."""
    bin_path, json_path = tmp_path / "a.bin", tmp_path / "a.json"
    save_arrays({"w": np.arange(6.0).reshape(2, 3), "b": np.array([7.0, 8.0])},
                bin_path, json_path, meta={"k": 1})
    return bin_path, json_path, json.loads(json_path.read_text())


def rewrite(json_path, manifest):
    json_path.write_text(json.dumps(manifest))


def test_round_trip(saved):
    bin_path, json_path, _ = saved
    named, meta = load_arrays(bin_path, json_path)
    npt.assert_array_equal(named["w"], np.arange(6.0).reshape(2, 3))
    npt.assert_array_equal(named["b"], [7.0, 8.0])
    assert meta == {"k": 1}


def test_negative_offset_is_input_error(saved):
    bin_path, json_path, manifest = saved
    manifest["arrays"][0]["offset"] = -1
    rewrite(json_path, manifest)
    with pytest.raises(InputError):
        load_arrays(bin_path, json_path)


@pytest.mark.parametrize("offset", [1.5, 0.0, "0", True, None])
def test_non_integer_offset_is_input_error(saved, offset):
    bin_path, json_path, manifest = saved
    manifest["arrays"][0]["offset"] = offset
    rewrite(json_path, manifest)
    with pytest.raises(InputError):
        load_arrays(bin_path, json_path)


@pytest.mark.parametrize("key", ["name", "shape", "offset"])
def test_missing_entry_key_is_input_error(saved, key):
    bin_path, json_path, manifest = saved
    del manifest["arrays"][1][key]
    rewrite(json_path, manifest)
    with pytest.raises(InputError):
        load_arrays(bin_path, json_path)


def test_trailing_bytes_are_input_error(saved):
    bin_path, json_path, _ = saved
    bin_path.write_bytes(bin_path.read_bytes() + np.zeros(1).tobytes())
    with pytest.raises(InputError):
        load_arrays(bin_path, json_path)


def test_partial_value_is_input_error(saved):
    bin_path, json_path, _ = saved
    bin_path.write_bytes(bin_path.read_bytes() + b"\x00\x00\x00")
    with pytest.raises(InputError):
        load_arrays(bin_path, json_path)


def test_overlapping_arrays_are_input_error(saved):
    bin_path, json_path, manifest = saved
    manifest["arrays"][1]["offset"] = 4
    rewrite(json_path, manifest)
    with pytest.raises(InputError):
        load_arrays(bin_path, json_path)


def test_malformed_manifest_is_input_error(saved):
    bin_path, json_path, _ = saved
    json_path.write_text("{not json")
    with pytest.raises(InputError):
        load_arrays(bin_path, json_path)


@pytest.mark.parametrize("case", ["manifest_missing", "binary_missing", "binary_is_directory"])
def test_unreadable_file_is_input_error(saved, case):
    bin_path, json_path, _ = saved
    bad = json_path if case == "manifest_missing" else bin_path
    bad.unlink()
    if case == "binary_is_directory":
        bad.mkdir()
    with pytest.raises(InputError, match=bad.name) as info:
        load_arrays(bin_path, json_path)
    assert isinstance(info.value.__cause__, OSError)
