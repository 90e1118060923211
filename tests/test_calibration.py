import numpy as np
import pytest

from skillzip import ValidationError, profile
from skillzip.fixtures import make_suite, outlier_activations
from skillzip.prng import Prng


def _synth(seed, tokens, channels, n_outliers, ratio):
    """Outlier activations with `n_outliers` random columns scaled by `ratio`."""
    rng = Prng(seed)
    cols = rng.spawn("outliers").choice_indices(channels, n_outliers)
    return outlier_activations(rng, tokens, channels, 15.0, cols, ratio)


def test_profile_uniform_signs():
    x = np.array([[1.0, -1.0], [1.0, -1.0]], dtype=np.float32)
    prof = profile({"l": x})
    assert list(prof) == ["l"]
    assert prof["l"].dtype == np.float64
    assert prof["l"].tolist() == [1.0, 1.0]


def test_profile_scalar_oracle():
    x = np.array([[0.0, 2.0], [0.0, -4.0]], dtype=np.float32)
    assert profile({"l": x})["l"].tolist() == [0.0, 3.0]


def test_profile_permutation_equivariant():
    rng = Prng(22)
    x = rng.uniform_matrix(20, 8, -5.0, 5.0)
    perm = [3, 1, 7, 0, 4, 6, 2, 5]
    direct = profile({"l": x[:, perm]})["l"]
    base = profile({"l": x})["l"]
    assert np.array_equal(direct, base[perm])


def test_synth_degenerate_ratio_indistinguishable():
    x = _synth(1, tokens=200, channels=32, n_outliers=4, ratio=1.0)
    mean_abs = profile({"l": x})["l"]
    assert mean_abs.max() / np.median(mean_abs) <= 1.5


def test_synth_outlier_column_stands_out():
    x = _synth(2, tokens=128, channels=64, n_outliers=1, ratio=100.0)
    mean_abs = profile({"l": x})["l"]
    order = np.argsort(mean_abs)
    others_median = np.median(mean_abs[order[:-1]])
    assert mean_abs[order[-1]] >= 50.0 * others_median
    assert np.sum(mean_abs >= 50.0 * others_median) == 1


def test_synth_deterministic():
    a = _synth(7, 16, 24, 2, 50.0)
    b = _synth(7, 16, 24, 2, 50.0)
    assert a.tobytes() == b.tobytes()


def test_synth_ratio_scaling_property():
    for ratio in (10.0, 50.0, 100.0):
        x = _synth(11, 64, 48, 3, ratio)
        mean_abs = profile({"l": x})["l"]
        order = np.argsort(mean_abs)
        outliers = mean_abs[order[-3:]]
        others = np.median(mean_abs[order[:-3]])
        assert (outliers >= 0.5 * ratio * others).all()


def test_synth_too_many_outliers():
    for n_outliers in (-1, 4, 5):
        with pytest.raises(ValidationError, match="outlier channel count"):
            make_suite(1, c_in=4, c_out=4, outlier_channels=n_outliers)
