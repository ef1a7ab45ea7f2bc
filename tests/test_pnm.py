import numpy as np
import pytest

from msvar import pnm


def test_pgm_round_trip_within_quantization(tmp_path):
    rng = np.random.default_rng(0)
    image = rng.random((9, 7, 1))
    path = tmp_path / "img.pgm"
    pnm.save_image(path, image)
    back = pnm.load_image(path)
    assert back.shape == (9, 7, 1)
    assert np.max(np.abs(back - image)) <= 0.5 / 255 + 1e-12


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    image = rng.random((5, 6, 3))
    path = tmp_path / "img.ppm"
    pnm.save_image(path, image)
    back = pnm.load_image(path)
    assert back.shape == (5, 6, 3)
    assert np.max(np.abs(back - image)) <= 0.5 / 255 + 1e-12


def test_labelmap_round_trip_exact(tmp_path):
    labels = np.array([[0, 1, 2], [3, 255, 0]], dtype=np.int64)
    path = tmp_path / "labels.pgm"
    pnm.save_labelmap(path, labels)
    back = pnm.load_labelmap(path)
    assert np.array_equal(back, labels)
    assert back.dtype == np.uint8 and back.flags.writeable  # one byte per label, as stored


def test_save_is_deterministic(tmp_path):
    rng = np.random.default_rng(2)
    image = rng.random((8, 8, 1))
    p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    pnm.save_image(p1, image)
    pnm.save_image(p2, image)
    assert p1.read_bytes() == p2.read_bytes()


def test_field_pgm_rescales_min_max(tmp_path):
    field = np.array([[1.0, 2.0], [3.0, 5.0]])
    path = tmp_path / "f.pgm"
    pnm.save_field_pgm(path, field)
    back = pnm.load_image(path)[:, :, 0]
    assert back[0, 0] == 0.0 and back[1, 1] == 1.0
    pnm.save_field_pgm(path, np.full((3, 3), 2.0))
    assert np.all(pnm.load_image(path) == 0.0)


def test_field_bin_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    field = rng.standard_normal((11, 4))
    path = tmp_path / "b.bin"
    pnm.save_field_bin(path, field)
    back = pnm.load_field_bin(path, 11, 4)
    assert np.array_equal(back, field)


def test_header_comments_are_skipped(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5 # comment\n# another\n2 2\n255\n" + bytes([0, 128, 255, 64]))
    image = pnm.load_image(path)
    assert image.shape == (2, 2, 1)
    assert image[0, 0, 0] == 0.0 and image[0, 1, 0] == pytest.approx(128 / 255)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 1 2 3")
    with pytest.raises(ValueError):
        pnm.load_image(path)


def test_truncated_raster_rejected(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(5))
    with pytest.raises(ValueError, match="PNM raster truncated in"):
        pnm.load_image(path)


def test_label_range_enforced(tmp_path):
    with pytest.raises(ValueError):
        pnm.save_labelmap(tmp_path / "x.pgm", np.array([[300]]))


def test_sample_above_maxval_rejected(tmp_path):
    path = tmp_path / "over.pgm"
    path.write_bytes(b"P5 2 2 1\n" + bytes([0, 7, 1, 200]))
    with pytest.raises(ValueError, match="above maxval"):
        pnm.load_image(path)


def test_samples_at_maxval_accepted(tmp_path):
    path = tmp_path / "max.pgm"
    path.write_bytes(b"P5 2 2 7\n" + bytes([0, 7, 1, 7]))
    assert pnm.load_image(path).max() == 1.0


@pytest.mark.parametrize("size", [b"-2 -3", b"0 3", b"2 0"])
def test_non_positive_size_rejected(tmp_path, size):
    path = tmp_path / "size.pgm"
    path.write_bytes(b"P5 " + size + b" 255\n" + bytes(6))
    with pytest.raises(ValueError, match="size must be positive"):
        pnm.load_image(path)


def test_segment_rejects_sample_above_maxval_with_exit_2(tmp_path):
    from msvar.cli import main

    path = tmp_path / "over.pgm"
    path.write_bytes(b"P5 2 2 1\n" + bytes([0, 7, 1, 200]))
    assert main(["segment", str(path), str(tmp_path / "out")]) == 2
