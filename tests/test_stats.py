import numpy as np
import numpy.testing as npt
import pytest

import ttalign as tl
from ttalign import autodiff as ad
from ttalign import stats as st
from ttalign.augment import generate_views
from ttalign.errors import CompatibilityError, ContractError, DataError, FormatError
from ttalign.model import FORWARD_CHUNK


def two_pass_oracle(values, order=2):
    """Brute-force central moment over all leading axes, per channel."""
    flat = values.reshape(-1, values.shape[-1])
    mu = flat.sum(axis=0) / flat.shape[0]
    if order == 1:
        return mu
    return ((flat - mu) ** order).sum(axis=0) / flat.shape[0]


# -- view statistics ---------------------------------------------------------


def test_constant_tokens_give_zero_variance():
    v = np.array([0.3, -1.2, 4.0])
    tokens = [ad.Tensor(np.broadcast_to(v, (5, 7, 3)).copy())]
    out = st.view_stats(tokens, np.arange(7))
    npt.assert_allclose(out.mu[0].data, v, atol=1e-15)
    npt.assert_allclose(out.var[0].data, np.zeros(3), atol=1e-15)


def test_two_value_hand_case():
    # channel values {1, 3} across two views -> mean 2, biased variance 1
    tokens = [ad.Tensor(np.array([[[1.0]], [[3.0]]]))]
    out = st.view_stats(tokens, np.array([0]))
    assert out.mu[0].item() == 2.0
    assert out.var[0].item() == 1.0


def test_view_stats_matches_two_pass_oracle():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 9, 5))
    out = st.view_stats([ad.Tensor(x)], np.arange(9))
    npt.assert_allclose(out.mu[0].data, two_pass_oracle(x, 1), atol=1e-12)
    npt.assert_allclose(out.var[0].data, two_pass_oracle(x, 2), atol=1e-12)


def test_view_stats_token_mask_selects():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 8, 4))
    idx = np.array([2, 5, 7])
    out = st.view_stats([ad.Tensor(x)], idx)
    npt.assert_allclose(out.mu[0].data, two_pass_oracle(x[:, idx], 1), atol=1e-12)


def test_view_stats_empty_mask_rejected():
    with pytest.raises(ContractError):
        st.view_stats([ad.Tensor(np.zeros((2, 3, 4)))], np.array([], dtype=int))


def test_view_stats_gradients_match_fd(tiny_model):
    prompts = tl.PromptState(tiny_model.config, seed=0)
    img = np.random.default_rng(2).normal(size=(1, 16, 16))
    views = generate_views(img, 3, seed=5).views
    idx = tiny_model.token_indices(prompted=True)
    rng = np.random.default_rng(3)
    probes = None

    def scalar():
        nonlocal probes
        _, tokens = tiny_model.encode_image(views, prompts)
        out = st.view_stats(tokens, idx)
        if probes is None:
            probes = [
                (ad.Tensor(rng.normal(size=m.shape)), ad.Tensor(rng.normal(size=v.shape)))
                for m, v in zip(out.mu, out.var)
            ]
        total = None
        for (pm, pv), m, v in zip(probes, out.mu, out.var):
            term = ad.tsum(m * pm) + ad.tsum(v * pv)
            total = term if total is None else total + term
        return total

    err = ad.grad_check(scalar, prompts.parameters(), step=1e-5)
    assert err < 1e-4


# -- central moments ------------------------------------------------------------


def test_odd_moments_of_symmetric_data_vanish():
    tokens = [ad.Tensor(np.array([[[-1.0]], [[1.0]]]))]
    moments = st.central_moments(tokens, np.array([0]), max_order=5)
    assert moments[3][0].item() == 0.0
    assert moments[5][0].item() == 0.0


def test_order_two_equals_variance():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(4, 6, 3))
    stats = st.view_stats([ad.Tensor(x)], np.arange(6))
    moments = st.central_moments([ad.Tensor(x)], np.arange(6), max_order=4)
    npt.assert_allclose(moments[2][0].data, stats.var[0].data, atol=1e-12)


def test_order_four_of_plus_minus_one():
    tokens = [ad.Tensor(np.array([[[-1.0]], [[1.0]]]))]
    moments = st.central_moments(tokens, np.array([0]), max_order=4)
    assert moments[4][0].item() == 1.0


def test_central_moments_reject_low_order():
    with pytest.raises(ContractError):
        st.central_moments([ad.Tensor(np.zeros((2, 2, 2)))], np.array([0]), max_order=1)


# -- streaming accumulator ---------------------------------------------------------


def test_streaming_equals_two_pass_on_random_blocks():
    rng = np.random.default_rng(5)
    for trial in range(20):
        blocks = [rng.normal(size=(rng.integers(1, 6), 4)) for _ in range(5)]
        acc = st.RunningMoments(4, max_order=5)
        for b in blocks:
            acc.add(b)
        stacked = np.concatenate(blocks)[:, None, :]
        npt.assert_allclose(acc.mean(), two_pass_oracle(stacked, 1), atol=1e-10)
        npt.assert_allclose(acc.variance(), two_pass_oracle(stacked, 2), atol=1e-10)
        for k in (3, 4, 5):
            npt.assert_allclose(acc.central(k), two_pass_oracle(stacked, k), atol=1e-10)


def test_streaming_block_split_is_bit_exact():
    rng = np.random.default_rng(6)
    data = rng.normal(size=(30, 3))
    a = st.RunningMoments(3, 4)
    a.add(data)
    b = st.RunningMoments(3, 4)
    for row in data:
        b.add(row[None])
    assert np.array_equal(a.mean(), b.mean())
    assert np.array_equal(a.central(4), b.central(4))


# -- source statistics ----------------------------------------------------------


def test_source_stats_single_image_matches_promptfree_view_stats(tiny_model):
    img = np.random.default_rng(7).normal(size=(1, 16, 16))
    src = st.source_stats(img[None], tiny_model, dataset_id="one")
    _, tokens = tiny_model.encode_image(img)
    vs = st.view_stats(tokens, tiny_model.token_indices(prompted=False))
    for l in range(src.n_layers):
        npt.assert_allclose(src.mu[l], vs.mu[l].data, atol=1e-12)
        npt.assert_allclose(src.var[l], vs.var[l].data, atol=1e-12)


@pytest.mark.parametrize("n", [1, FORWARD_CHUNK, FORWARD_CHUNK + 6])
@pytest.mark.parametrize("include_cls", [False, True])
def test_source_stats_equals_per_image_accumulation(tiny_model, tiny_data, n, include_cls):
    images = tiny_data[0].images[:n].astype(np.float64)
    assert images.shape[0] == n
    idx = tiny_model.token_indices(prompted=False, include_cls=include_cls)
    accs = None
    with ad.no_grad():
        for img in images:
            _, tokens = tiny_model.encode_image(img)
            accs = accs or [st.RunningMoments(t.shape[-1], 5) for t in tokens]
            for acc, t in zip(accs, tokens):
                acc.add(t.data[:, idx])
    got = st.source_stats(images, tiny_model, max_order=5, include_cls=include_cls)
    assert got.sample_count == n
    for layer, acc in enumerate(accs):
        assert np.array_equal(got.mu[layer], acc.mean())
        assert np.array_equal(got.var[layer], acc.variance())
        for k in range(3, 6):
            assert np.array_equal(got.moments[k][layer], acc.central(k))


def test_source_stats_duplication_invariant(tiny_model):
    rng = np.random.default_rng(8)
    images = rng.normal(size=(3, 1, 16, 16))
    once = st.source_stats(images, tiny_model)
    twice = st.source_stats(np.concatenate([images, images]), tiny_model)
    for l in range(once.n_layers):
        npt.assert_allclose(once.mu[l], twice.mu[l], atol=1e-12)
        npt.assert_allclose(once.var[l], twice.var[l], atol=1e-12)


def test_source_stats_empty_rejected(tiny_model):
    with pytest.raises(DataError):
        st.source_stats(np.empty((0, 1, 16, 16)), tiny_model)


def test_source_stats_variance_nonnegative(tiny_stats):
    for v in tiny_stats.var:
        assert np.all(v >= 0.0)


# -- bag of samples ----------------------------------------------------------------


def test_bag_of_samples_concatenation_exact(tiny_model):
    rng = np.random.default_rng(10)
    prompts = tl.PromptState(tiny_model.config, seed=0)
    idx = tiny_model.token_indices(prompted=True)
    views = [
        generate_views(rng.normal(size=(1, 16, 16)), 4, seed=s).views for s in (1, 2, 3)
    ]
    # per-image forward passes, then pooled as one view set
    per_image = [tiny_model.encode_image(v, prompts)[1] for v in views]
    pooled = [
        ad.concat([tok[l] for tok in per_image], axis=0)
        for l in range(tiny_model.config.n_vision_layers)
    ]
    stats_pooled = st.view_stats(pooled, idx)
    # one concatenated forward pass
    _, joint_tokens = tiny_model.encode_image(np.concatenate(views), prompts)
    stats_joint = st.view_stats(joint_tokens, idx)
    for l in range(tiny_model.config.n_vision_layers):
        assert np.array_equal(stats_pooled.mu[l].data, stats_joint.mu[l].data)
        assert np.array_equal(stats_pooled.var[l].data, stats_joint.var[l].data)


# -- serialization -------------------------------------------------------------------


def test_stats_round_trip(tiny_stats, tmp_path):
    path = tmp_path / "stats.bin"
    st.save_stats(tiny_stats, path)
    loaded = st.load_stats(path)
    assert loaded.model_hash == tiny_stats.model_hash
    assert loaded.dataset_id == tiny_stats.dataset_id
    assert loaded.sample_count == tiny_stats.sample_count
    assert loaded.max_order == tiny_stats.max_order
    for l in range(tiny_stats.n_layers):
        assert np.array_equal(loaded.mu[l], tiny_stats.mu[l])
        assert np.array_equal(loaded.var[l], tiny_stats.var[l])
        for k in range(3, tiny_stats.max_order + 1):
            assert np.array_equal(loaded.moments[k][l], tiny_stats.moments[k][l])


def test_stats_wrong_hash_rejected(tiny_stats, tmp_path):
    path = tmp_path / "stats.bin"
    st.save_stats(tiny_stats, path)
    with pytest.raises(CompatibilityError):
        st.load_stats(path, expected_model_hash="ab" * 32)


def test_stats_corrupt_magic(tiny_stats, tmp_path):
    path = tmp_path / "stats.bin"
    st.save_stats(tiny_stats, path)
    raw = bytearray(path.read_bytes())
    raw[3] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        st.load_stats(path)


def test_stats_truncated(tiny_stats, tmp_path):
    path = tmp_path / "stats.bin"
    st.save_stats(tiny_stats, path)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(FormatError):
        st.load_stats(path)


def test_stats_json_mirror(tiny_stats, tmp_path):
    import json

    path = tmp_path / "stats.json"
    st.write_stats_json(tiny_stats, path)
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["model_hash"] == tiny_stats.model_hash
    assert doc["n_layers"] == tiny_stats.n_layers
    npt.assert_allclose(doc["layers"][0]["mu"], tiny_stats.mu[0])
    npt.assert_allclose(doc["layers"][0]["m5"], tiny_stats.moments[5][0])
