import numpy as np
import pytest

from msvar.phantoms import make_phantom


def test_two_phase_noiseless_has_two_values():
    image, labels, bias = make_phantom("two-phase", 64, 0.0, 0)
    assert bias is None
    values = np.unique(image)
    assert values.tolist() == [0.2, 0.8]
    assert set(np.unique(labels)) == {0, 1}
    # labels track the bright disk
    assert np.all((image[:, :, 0] == 0.8) == (labels == 1))


def test_seeded_determinism():
    a, la, _ = make_phantom("two-phase", 64, 0.05, 7)
    b, lb, _ = make_phantom("two-phase", 64, 0.05, 7)
    assert np.array_equal(a, b)
    assert np.array_equal(la, lb)
    c, _, _ = make_phantom("two-phase", 64, 0.05, 8)
    assert not np.array_equal(a, c)


def test_four_phase_levels():
    image, labels, _ = make_phantom("four-phase", 32, 0.0, 1)
    assert sorted(np.unique(image).tolist()) == [0.2, 0.4, 0.6, 0.8]
    levels = np.array([0.2, 0.4, 0.6, 0.8])
    assert np.array_equal(image[:, :, 0], levels[labels])


def test_ramp_bias_division_recovers_two_values():
    image, labels, bias = make_phantom("ramp-bias", 64, 0.0, 0)
    assert bias is not None and bias.shape == (64, 64)
    flat = image[:, :, 0] / bias
    assert np.max(np.abs(flat - np.where(labels == 1, 0.8, 0.2))) < 1e-12
    assert bias.min() == pytest.approx(0.7) and bias.max() == pytest.approx(1.3)


def test_values_clamped_to_unit_interval():
    image, _, _ = make_phantom("two-phase", 64, 0.5, 123)
    assert image.min() >= 0.0 and image.max() <= 1.0


def test_parameter_validation():
    with pytest.raises(ValueError):
        make_phantom("two-phase", 8, 0.0, 0)
    with pytest.raises(ValueError):
        make_phantom("two-phase", 64, -0.1, 0)
    for sigma in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="noise_sigma must be finite"):
            make_phantom("two-phase", 64, sigma, 0)
    with pytest.raises(ValueError):
        make_phantom("blob", 64, 0.0, 0)
