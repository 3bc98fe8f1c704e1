import numpy as np
import numpy.testing as npt
import pytest

from ttalign.augment import generate_views
from ttalign.errors import ConfigurationError, ContractError


def _image(seed=0, shape=(1, 32, 32)):
    return np.random.default_rng(seed).normal(size=shape)


def test_single_view_is_the_original():
    img = _image()
    batch = generate_views(img, 1, seed=7)
    assert batch.n_views == 1
    assert np.array_equal(batch.views[0], img)
    assert batch.params_log == []


def test_view_zero_always_bit_exact():
    img = _image(1)
    batch = generate_views(img, 16, seed=3)
    assert np.array_equal(batch.views[0], img)


def test_determinism_under_fixed_seed():
    img = _image(2)
    a = generate_views(img, 12, seed=11)
    b = generate_views(img, 12, seed=11)
    assert np.array_equal(a.views, b.views)
    assert a.params_log == b.params_log


def test_distinct_seeds_differ():
    img = _image(3)
    a = generate_views(img, 8, seed=1)
    b = generate_views(img, 8, seed=2)
    assert a.params_log != b.params_log


def test_batch_of_64_logs_63_param_tuples():
    batch = generate_views(_image(4), 64, seed=5)
    assert batch.views.shape[0] == 64
    assert len(batch.params_log) == 63


def test_crop_rectangles_inside_bounds():
    img = _image(5, (1, 24, 40))
    batch = generate_views(img, 50, seed=9)
    for p in batch.params_log:
        assert 0 <= p.top and p.top + p.height <= 24
        assert 0 <= p.left and p.left + p.width <= 40
        assert p.height >= 1 and p.width >= 1


def test_output_dims_match_input():
    img = _image(6, (2, 16, 16))
    batch = generate_views(img, 10, seed=13)
    assert batch.views.shape == (10, 2, 16, 16)


def test_constant_image_yields_constant_views():
    img = np.full((1, 32, 32), 0.37)
    batch = generate_views(img, 20, seed=21)
    npt.assert_allclose(batch.views, 0.37, atol=1e-12)


def test_zero_views_rejected():
    with pytest.raises(ContractError):
        generate_views(_image(), 0, seed=0)


@pytest.mark.parametrize("n_views", [1, 2])
@pytest.mark.parametrize("seed", [-1, 2**64])
def test_out_of_range_seed_rejected_for_any_view_count(n_views, seed):
    """One view draws no random numbers; its seed is checked all the same
    (the non-integer seeds are in test_tta's integer-field test)."""
    with pytest.raises(ConfigurationError):
        generate_views(_image(), n_views, seed)


def test_view_order_independent_of_generation():
    # counter-based streams: view i only depends on (seed, i)
    img = _image(7)
    full = generate_views(img, 9, seed=17)
    prefix = generate_views(img, 5, seed=17)
    assert np.array_equal(full.views[:5], prefix.views)


def test_flip_and_crop_actually_vary():
    batch = generate_views(_image(8), 40, seed=23)
    flips = {p.flip for p in batch.params_log}
    sizes = {(p.height, p.width) for p in batch.params_log}
    assert flips == {True, False}
    assert len(sizes) > 5
