import numpy as np
import numpy.testing as npt
import pytest

from segxfer import netpbm
from segxfer.errors import InputError


def test_pgm_golden_bytes(tmp_path):
    img = np.array([[0, 128, 255], [1, 2, 3]], dtype=np.uint8)
    path = tmp_path / "g.pgm"
    netpbm.write_pgm(path, img)
    assert path.read_bytes() == b"P5\n3 2\n255\n" + img.tobytes()


def test_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(7, 5), dtype=np.uint8)
    path = tmp_path / "r.pgm"
    netpbm.write_pgm(path, img)
    npt.assert_array_equal(netpbm.read_pgm(path), img)


def test_ppm_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, size=(4, 6, 3), dtype=np.uint8)
    path = tmp_path / "r.ppm"
    netpbm.write_ppm(path, img)
    npt.assert_array_equal(netpbm.read_ppm(path), img)


def test_write_is_deterministic(tmp_path):
    img = np.arange(12, dtype=np.uint8).reshape(3, 4)
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    netpbm.write_pgm(a, img)
    netpbm.write_pgm(b, img)
    assert a.read_bytes() == b.read_bytes()


def test_gray_from_unit_rounding():
    npt.assert_array_equal(
        netpbm.gray_from_unit(np.array([0.0, 0.5, 1.0])),
        np.array([0, 128, 255], dtype=np.uint8),
    )
    with pytest.raises(InputError):
        netpbm.gray_from_unit(np.array([1.5]))


def test_labels_to_rgb_palette():
    labels = np.array([[0, 1], [2, 12]])
    rgb = netpbm.labels_to_rgb(labels)
    npt.assert_array_equal(rgb[0, 0], netpbm.CLASS_PALETTE[0])
    npt.assert_array_equal(rgb[1, 1], netpbm.CLASS_PALETTE[0])  # wraps mod 12
    assert rgb.dtype == np.uint8


def test_writer_rejects_wrong_dtype(tmp_path):
    with pytest.raises(InputError):
        netpbm.write_pgm(tmp_path / "x.pgm", np.zeros((2, 2), dtype=float))
    with pytest.raises(InputError):
        netpbm.write_ppm(tmp_path / "x.ppm", np.zeros((2, 2, 3), dtype=np.int32))


def test_reader_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
    with pytest.raises(InputError):
        netpbm.read_pgm(path)


def test_reader_skips_header_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5 # binary gray\n# made by hand\n3 # width\n2\n# maxval next\n255\n"
                     + bytes(range(6)))
    npt.assert_array_equal(netpbm.read_pgm(path), np.arange(6, dtype=np.uint8).reshape(2, 3))


@pytest.mark.parametrize("dims", [b"3.0 2", b"-3 2", b"3 two"])
def test_reader_rejects_non_integer_header_field(tmp_path, dims):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n" + dims + b"\n255\n" + bytes(6))
    with pytest.raises(InputError):
        netpbm.read_pgm(path)
