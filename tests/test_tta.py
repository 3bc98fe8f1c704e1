import math

import numpy as np
import numpy.testing as npt
import pytest

import ttalign as tl
from ttalign import autodiff as ad
from ttalign import harness
from ttalign import stats as st
from ttalign import tta
from ttalign.augment import generate_views
from ttalign.errors import CompatibilityError, ConfigurationError, ContractError, DataError
from ttalign.optim import AdamW


def filter_oracle(probs, ratio):
    """Sort-based reference: lowest entropy first, ties by view index."""
    ent = tta.shannon_entropy(probs)
    k = max(1, math.floor(ratio * len(ent)))
    order = sorted(range(len(ent)), key=lambda i: (ent[i], i))
    return sorted(order[:k])


# -- confidence filter -----------------------------------------------------------


def test_filter_keeps_six_of_sixtyfour():
    rng = np.random.default_rng(0)
    probs = rng.dirichlet(np.ones(8), size=64)
    kept = tta.confidence_filter(probs, 0.10)
    assert len(kept) == 6


def test_filter_full_ratio_returns_all_in_order():
    rng = np.random.default_rng(1)
    probs = rng.dirichlet(np.ones(5), size=9)
    npt.assert_array_equal(tta.confidence_filter(probs, 1.0), np.arange(9))


def test_filter_picks_the_confident_row():
    probs = np.full((10, 4), 0.25)
    probs[7] = [1.0, 0.0, 0.0, 0.0]
    kept = tta.confidence_filter(probs, 0.1)
    npt.assert_array_equal(kept, [7])


def test_filter_exhaustive_small_n_vs_oracle():
    rng = np.random.default_rng(2)
    for n in range(1, 13):
        for ratio in (0.05, 0.1, 0.25, 0.5, 0.75, 1.0):
            probs = rng.dirichlet(np.ones(4), size=n)
            if n >= 3:  # inject exact ties
                probs[n - 1] = probs[0]
                probs[n - 2] = probs[0]
            kept = tta.confidence_filter(probs, ratio)
            assert kept.tolist() == filter_oracle(probs, ratio)
            assert len(kept) == max(1, math.floor(ratio * n))


def test_filter_deterministic_tie_break():
    probs = np.tile(np.array([[0.5, 0.5]]), (6, 1))
    npt.assert_array_equal(tta.confidence_filter(probs, 0.5), [0, 1, 2])


# -- entropy loss -------------------------------------------------------------------


def test_entropy_zero_for_agreeing_onehots():
    probs = ad.Tensor(np.tile([[0.0, 1.0, 0.0]], (4, 1)))
    assert tta.entropy_loss(probs, np.arange(4)).item() == 0.0


def test_entropy_uniform_is_log_c():
    probs = ad.Tensor(np.full((3, 8), 1 / 8))
    assert abs(tta.entropy_loss(probs, np.arange(3)).item() - math.log(8)) < 1e-12


def test_entropy_two_disagreeing_onehots():
    probs = ad.Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert abs(tta.entropy_loss(probs, np.arange(2)).item() - math.log(2)) < 1e-12


def test_entropy_requires_kept_views():
    with pytest.raises(ContractError):
        tta.entropy_loss(ad.Tensor(np.ones((2, 2)) / 2), np.array([], dtype=int))


# -- alignment loss -------------------------------------------------------------------


def _stats_pair(mu_t, var_t, mu_s, var_s, moments_t=None, moments_s=None):
    table_t = {1: mu_t, 2: var_t, **(moments_t or {})}
    table_s = {1: mu_s, 2: var_s, **(moments_s or {})}
    test = st.LayerStats({k: [ad.Tensor(np.atleast_1d(v))] for k, v in table_t.items()})
    source = st.SourceStats(
        moments={k: [np.atleast_1d(v)] for k, v in table_s.items()},
        dataset_id="test",
        sample_count=1,
        model_hash="00" * 32,
    )
    return test, source


def test_align_identical_stats_is_zero_for_all_variants():
    rng = np.random.default_rng(3)
    mu = rng.normal(size=6)
    var = rng.uniform(0.1, 1.0, size=6)
    m3 = rng.normal(size=6) * 0.01
    test, source = _stats_pair(mu, var, mu.copy(), var.copy(),
                               moments_t={3: m3}, moments_s={3: m3.copy()})
    assert tl.align_loss(test, source, (1,), "l1").item() == 0.0
    assert tl.align_loss(test, source, (1,), "l2").item() == 0.0
    assert abs(tl.align_loss(test, source, (1,), "kl").item()) < 1e-10
    assert tl.align_loss(test, source, (1,), "cmd-3").item() == 0.0


def test_align_l1_hand_case():
    # one layer, one channel: mean off by 0.5, variance off by 0.25
    test, source = _stats_pair(0.7, 0.25, 0.2, 0.5)
    assert abs(tl.align_loss(test, source, (1,), "l1").item() - 0.75) < 1e-15


def test_align_l2_hand_case():
    test, source = _stats_pair(0.7, 0.25, 0.2, 0.5)
    expect = 0.5**2 + 0.25**2
    assert abs(tl.align_loss(test, source, (1,), "l2").item() - expect) < 1e-15


def test_align_kl_hand_case():
    mu_t, var_t, mu_s, var_s = 0.3, 0.4, 0.1, 0.8
    test, source = _stats_pair(mu_t, var_t, mu_s, var_s)
    expect = 0.5 * math.log(var_s / var_t) + (var_t + (mu_t - mu_s) ** 2) / (2 * var_s) - 0.5
    assert abs(tl.align_loss(test, source, (1,), "kl").item() - expect) < 1e-14


def test_align_cmd_adds_moment_terms():
    test, source = _stats_pair(
        0.7, 0.25, 0.2, 0.5,
        moments_t={3: 0.1, 4: 0.2}, moments_s={3: -0.1, 4: 0.25},
    )
    expect = 0.75 + 0.2 + 0.05
    assert abs(tl.align_loss(test, source, (1,), "cmd-4").item() - expect) < 1e-14


def test_align_layer_averaging():
    rng = np.random.default_rng(4)
    mu = rng.normal(size=3)
    test = st.LayerStats({
        1: [ad.Tensor(mu), ad.Tensor(mu + 1.0)],
        2: [ad.Tensor(np.ones(3)), ad.Tensor(np.ones(3))],
    })
    source = st.SourceStats(
        moments={1: [mu.copy(), mu.copy()], 2: [np.ones(3), np.ones(3)]},
        dataset_id="", sample_count=1, model_hash="00" * 32,
    )
    one = tl.align_loss(test, source, (2,), "l1").item()
    both = tl.align_loss(test, source, (1, 2), "l1").item()
    assert abs(both - one / 2.0) < 1e-14


def test_align_dim_mismatch_rejected():
    test, _ = _stats_pair(0.0, 1.0, 0.0, 1.0)
    _, source = _stats_pair(np.zeros(2), np.ones(2), np.zeros(2), np.ones(2))
    with pytest.raises(ContractError):
        tl.align_loss(test, source, (1,), "l1")


def test_align_cmd_requires_moments():
    test, source = _stats_pair(0.0, 1.0, 0.0, 1.0)
    with pytest.raises(ContractError):
        tl.align_loss(test, source, (1,), "cmd-5")


def test_align_l1_gradient_larger_than_l2_for_small_deviations():
    rng = np.random.default_rng(5)
    grads = {"l1": [], "l2": []}
    for _ in range(20):
        dev = rng.uniform(-0.1, 0.1, size=8)
        mu_s = rng.normal(size=8)
        for variant in ("l1", "l2"):
            mu_t = ad.Tensor(mu_s + dev, requires_grad=True)
            test = st.LayerStats({1: [mu_t], 2: [ad.Tensor(np.full(8, 0.015))]})
            source = st.SourceStats(
                moments={1: [mu_s], 2: [np.full(8, 0.015)]},
                dataset_id="", sample_count=1, model_hash="00" * 32,
            )
            g = ad.backward(tl.align_loss(test, source, (1,), variant))[mu_t]
            grads[variant].append(np.mean(np.abs(g)))
    assert np.mean(grads["l1"]) > np.mean(grads["l2"])


def test_align_variant_parsing():
    assert tta.parse_align_variant("L1") == ("l1", 2)
    assert tta.parse_align_variant("cmd-5") == ("cmd", 5)
    with pytest.raises(ConfigurationError):
        tta.parse_align_variant("cmd-2")
    with pytest.raises(ConfigurationError):
        tta.parse_align_variant("wasserstein")


# -- combined loss ---------------------------------------------------------------------


def test_combined_beta_zero_returns_entropy_object():
    l_ent = ad.Tensor(np.array(1.25))
    l_align = ad.Tensor(np.array(9.0))
    assert tl.combined_loss(l_ent, l_align, 0.0) is l_ent


def test_combined_arithmetic():
    out = tl.combined_loss(ad.Tensor(np.array(1.0)), ad.Tensor(np.array(0.01)), 100.0)
    assert abs(out.item() - 2.0) < 1e-15


def test_combined_gradient_is_sum_of_components():
    rng = np.random.default_rng(6)
    mu_s = rng.normal(size=4)
    mu_t = ad.Tensor(mu_s + rng.uniform(0.05, 0.2, size=4), requires_grad=True)
    probs = ad.softmax(ad.reshape(mu_t, (1, 4)) * 3.0, axis=-1)

    def parts():
        test = st.LayerStats({1: [mu_t], 2: [ad.Tensor(np.ones(4))]})
        source = st.SourceStats(
            moments={1: [mu_s], 2: [np.ones(4)]},
            dataset_id="", sample_count=1, model_hash="00" * 32,
        )
        l_ent = tta.entropy_loss(ad.softmax(ad.reshape(mu_t, (1, 4)) * 3.0, axis=-1), np.array([0]))
        l_align = tl.align_loss(test, source, (1,), "l1")
        return l_ent, l_align

    beta = 7.0
    l_ent, l_align = parts()
    g_final = ad.backward(tl.combined_loss(l_ent, l_align, beta))[mu_t]
    l_ent, l_align = parts()
    g_ent = ad.backward(l_ent)[mu_t]
    l_ent, l_align = parts()
    g_align = ad.backward(l_align)[mu_t]
    npt.assert_allclose(g_final, g_ent + beta * g_align, atol=1e-12)

    err = ad.grad_check(lambda: tl.combined_loss(*parts(), beta), [mu_t], step=1e-6)
    assert err < 1e-4


# -- optimizers -----------------------------------------------------------------------


def test_optimizers_ignore_zero_gradients():
    p = ad.Tensor(np.array([3.0]), requires_grad=True)
    before = p.data.copy()
    opt = AdamW([p], 0.1)
    opt.step({p: np.zeros(1)})
    npt.assert_array_equal(p.data, before)
    opt.step({})  # no entry for p
    npt.assert_array_equal(p.data, before)


def test_adamw_first_step_is_sign_like():
    rng = np.random.default_rng(7)
    p = ad.Tensor(rng.normal(size=16), requires_grad=True)
    g = rng.normal(size=16) * 10.0 ** rng.uniform(-3, 3, size=16)
    before = p.data.copy()
    lr = 1e-3
    AdamW([p], lr=lr).step({p: g})
    delta = np.abs(p.data - before)
    assert np.all(delta >= 0.9 * lr) and np.all(delta <= lr)


def test_adamw_decoupled_weight_decay():
    p = ad.Tensor(np.array([2.0]), requires_grad=True)
    # zero gradient: only the decay term moves the weight
    AdamW([p], lr=0.1, weight_decay=0.5).step({p: np.array([0.0])})
    npt.assert_allclose(p.data, [2.0 - 0.1 * 0.5 * 2.0], atol=1e-15)


# -- episode behavior -------------------------------------------------------------------


def _ep_key(ep):
    return (ep.predicted, ep.probs.tobytes(), ep.entropy_losses, ep.align_losses,
            ep.final_losses, ep.kept_views)


def test_zero_steps_equals_zero_shot(tiny_model, tiny_data):
    _, _, test = tiny_data
    img = test.images[0].astype(np.float64)
    prompts = tl.PromptState(tiny_model.config, seed=0)
    config = tl.TTAConfig(beta=0.0, n_steps=0, seed=0)
    ep = tl.adapt_and_predict(img, tiny_model, prompts, None, config)
    from ttalign.model import predict

    zero_shot = predict(tiny_model, img[None], tl.PromptState(tiny_model.config, seed=0))
    assert ep.predicted == int(zero_shot[0])
    assert ep.entropy_losses == [] and ep.kept_views == []


def test_beta_zero_reduction_is_bit_exact(tiny_model, tiny_stats, tiny_data):
    _, _, test = tiny_data
    config = tl.TTAConfig(beta=0.0, n_views=6, seed=3)
    outs = []
    for stats in (tiny_stats, None):  # alignment machinery present vs absent
        prompts = tl.PromptState(tiny_model.config, seed=0)
        ep = tl.adapt_and_predict(test.images[1].astype(np.float64), tiny_model,
                                  prompts, stats, config, view_seed=41)
        outs.append(_ep_key(ep))
        assert ep.final_losses == ep.entropy_losses
        assert ep.align_losses == [0.0]
    assert outs[0] == outs[1]


def test_episodic_invariance_bit_exact(tiny_model, tiny_stats, tiny_data):
    _, _, test = tiny_data
    config = tl.TTAConfig(beta=100.0, n_views=6, seed=5)
    img_a = test.images[0].astype(np.float64)
    img_b = test.images[1].astype(np.float64)

    prompts = tl.PromptState(tiny_model.config, seed=0)
    tl.adapt_and_predict(img_a, tiny_model, prompts, tiny_stats, config, view_seed=1)
    after_a = tl.adapt_and_predict(img_b, tiny_model, prompts, tiny_stats, config, view_seed=2)

    fresh = tl.PromptState(tiny_model.config, seed=0)
    alone = tl.adapt_and_predict(img_b, tiny_model, fresh, tiny_stats, config, view_seed=2)
    assert _ep_key(after_a) == _ep_key(alone)


def test_freeze_coupling_leaves_coupling_maps_unchanged(tiny_model, tiny_stats, tiny_data):
    # backward still returns the couplers' gradients; the step must skip them
    _, _, test = tiny_data
    config = tl.TTAConfig(beta=100.0, n_views=8, n_steps=2, update_coupling=False,
                          learning_rate=5e-3, seed=0)
    prompts = tl.PromptState(tiny_model.config, seed=0)
    initial = tl.PromptState(tiny_model.config, seed=0)
    tl.adapt_and_predict(test.images[0].astype(np.float64), tiny_model, prompts,
                         tiny_stats, config, view_seed=11)
    for c, c0 in zip(prompts.couplers, initial.couplers, strict=True):
        assert c.data.tobytes() == c0.data.tobytes()
    for t, t0 in zip(prompts.text_prompts, initial.text_prompts, strict=True):
        assert not np.array_equal(t.data, t0.data)


def test_stats_hash_mismatch_rejected(tiny_model, tiny_stats, tiny_data):
    import dataclasses

    _, _, test = tiny_data
    bad = dataclasses.replace(tiny_stats, model_hash="11" * 32)
    prompts = tl.PromptState(tiny_model.config, seed=0)
    with pytest.raises(CompatibilityError):
        tl.adapt_and_predict(test.images[0].astype(np.float64), tiny_model, prompts,
                             bad, tl.TTAConfig(beta=100.0, n_views=4))


def test_beta_positive_requires_stats(tiny_model, tiny_data):
    _, _, test = tiny_data
    prompts = tl.PromptState(tiny_model.config, seed=0)
    with pytest.raises(ContractError):
        tl.adapt_and_predict(test.images[0].astype(np.float64), tiny_model, prompts,
                             None, tl.TTAConfig(beta=100.0, n_views=4))


def test_align_layers_validated_against_model(tiny_model, tiny_stats, tiny_data):
    _, _, test = tiny_data
    prompts = tl.PromptState(tiny_model.config, seed=0)
    config = tl.TTAConfig(beta=100.0, n_views=4, align_layers=(1, 9))
    with pytest.raises(ConfigurationError):
        tl.adapt_and_predict(test.images[0].astype(np.float64), tiny_model, prompts,
                             tiny_stats, config)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("n_steps", [0, 1])
def test_non_finite_image_rejected(tiny_model, tiny_stats, tiny_data, value, n_steps):
    _, _, test = tiny_data
    img = test.images[0].astype(np.float64)
    img[0, 3, 5] = value
    prompts = tl.PromptState(tiny_model.config, seed=0)
    config = tl.TTAConfig(beta=100.0, n_views=4, n_steps=n_steps)
    with pytest.raises(DataError, match="non-finite"):
        tl.adapt_and_predict(img, tiny_model, prompts, tiny_stats, config)


def test_sgd_small_step_descends(tiny_model, tiny_stats, tiny_data):
    # one tiny gradient step must not increase the combined loss; episodes start
    # from the standard prompt init, exactly as episodic adaptation does
    _, _, test = tiny_data
    cfg = tiny_model.config
    token_idx = tiny_model.token_indices(prompted=True)
    descents = 0
    for episode in range(50):
        prompts = tl.PromptState(cfg, seed=0)
        image = test.images[episode % test.meta.n_samples].astype(np.float64)
        views = generate_views(image, 4, seed=900 + episode).views

        def loss():
            feats, tokens = tiny_model.encode_image(views, prompts)
            text = tiny_model.encode_text(prompts=prompts)
            probs = tl.classify(feats, text, tiny_model.temperature)
            kept = tta.confidence_filter(probs.data, 0.25)
            l_ent = tta.entropy_loss(probs, kept)
            l_align = tl.align_loss(
                st.view_stats(tokens, token_idx), tiny_stats, (1, 2, 3), "l1"
            )
            return tl.combined_loss(l_ent, l_align, 100.0)

        params = prompts.parameters()
        pre = loss()
        grads = ad.backward(pre)
        for p in params:
            p.data -= 1e-6 * grads[p]
        with ad.no_grad():
            post = loss()
        descents += post.item() <= pre.item()
    assert descents == 50


def test_one_aligned_step_reduces_align_loss(tiny_model, tiny_stats, tiny_data):
    # the alignment term itself should drop after one combined update
    _, _, test = tiny_data
    cfg = tiny_model.config
    token_idx = tiny_model.token_indices(prompted=True)
    config = tl.TTAConfig(beta=100.0, n_views=8, learning_rate=5e-3, seed=0)
    improved = 0
    for episode in range(100):
        img = test.images[episode % test.meta.n_samples].astype(np.float64)
        prompts = tl.PromptState(cfg, seed=0)
        views = generate_views(img, config.n_views, seed=1000 + episode).views

        def align_now():
            _, tokens = tiny_model.encode_image(views, prompts)
            return tl.align_loss(
                st.view_stats(tokens, token_idx), tiny_stats, config.align_layers, "l1"
            ).item()

        before = align_now()
        tl.adapt_and_predict(img, tiny_model, prompts, tiny_stats, config,
                             view_seed=1000 + episode)
        prompts_after = prompts  # adapt resets at entry, so state is post-update
        with ad.no_grad():
            after = align_now()
        improved += after < before
    assert improved >= 80


def _full_tape_step(model, prompts, views, stats, config):
    """Reference step: every view through every block on one tape."""
    feats, layer_tokens = model.encode_image(views, prompts)
    text = model.encode_text(prompts=prompts)
    probs = tl.classify(feats, text, model.temperature)
    kept = tta.confidence_filter(probs.data, config.filter_ratio)
    l_ent = tta.entropy_loss(probs, kept)
    l_align = None
    if config.beta > 0.0:
        tstats = st.view_stats(layer_tokens, model.token_indices(prompted=True))
        l_align = tl.align_loss(tstats, stats, config.align_layers, config.align_loss)
    grads = ad.backward(tl.combined_loss(l_ent, l_align, config.beta))
    return l_ent.item(), 0.0 if l_align is None else l_align.item(), kept.tolist(), grads


@pytest.mark.parametrize("filter_ratio", [1.0, 0.125])
@pytest.mark.parametrize("update_coupling", [True, False])
@pytest.mark.parametrize("align_layers", [(1,), (1, 2, 3), (3,)])
@pytest.mark.parametrize("beta", [0.0, 100.0])
def test_split_step_matches_full_tape(tiny_model, tiny_stats, tiny_data, monkeypatch,
                                      beta, align_layers, update_coupling, filter_ratio):
    _, _, test = tiny_data
    steps = []
    step = AdamW.step

    def recording_step(self, grads):
        steps.append(grads)
        step(self, grads)

    monkeypatch.setattr(AdamW, "step", recording_step)
    assert tiny_model.config.n_vision_layers == 3
    config = tl.TTAConfig(beta=beta, n_views=8, filter_ratio=filter_ratio,
                          align_layers=align_layers, update_coupling=update_coupling,
                          learning_rate=5e-3, seed=0)
    for i in range(3):
        img = test.images[i].astype(np.float64)
        ref_prompts = tl.PromptState(tiny_model.config, seed=0)
        views = generate_views(img, config.n_views, 70 + i).views
        l_ent, l_align, kept, grads = _full_tape_step(
            tiny_model, ref_prompts, views, tiny_stats, config
        )
        assert len(kept) == (8 if filter_ratio == 1.0 else 1)

        prompts = tl.PromptState(tiny_model.config, seed=0)
        steps.clear()
        ep = tl.adapt_and_predict(img, tiny_model, prompts, tiny_stats, config,
                                  view_seed=70 + i)
        (step_grads,) = steps
        assert ep.kept_views == [kept]
        assert abs(ep.entropy_losses[0] - l_ent) <= 1e-12 * max(1.0, abs(l_ent))
        assert abs(ep.align_losses[0] - l_align) <= 1e-12 * max(1.0, abs(l_align))
        # the step receives each prompt's gradient, frozen couplers included
        for ref, p in zip(ref_prompts.parameters(), prompts.parameters()):
            scale = np.max(np.abs(grads[ref]))
            assert scale > 0.0
            assert np.max(np.abs(step_grads[p] - grads[ref])) <= 1e-10 * scale


# Bound on the peak traced heap of one default-model episode. With a dozen
# tape nodes per transformer block this test measured 76.03 MiB; with one
# node per block, which keeps only what its backward reads, 45.64 MiB; with
# a backward that frees each node it has passed, an episode that holds no
# step's graph and blocks run in row chunks, 34.05 MiB (numpy 2.4.6,
# x86-64). The bound leaves about 10% above the latter.
EPISODE_PEAK_MIB = 38.0


def test_episode_tape_footprint():
    """The recipe's episode (64 views, one step, L1 on layers 1-3) of an
    untrained default model, measured by tracemalloc, which numpy reports
    its buffers to: a count of bytes that no clock enters."""
    import tracemalloc

    cfg = tl.ModelConfig()
    model = tl.DualEncoder(cfg, seed=0)
    model.freeze()
    rng = np.random.default_rng(0)
    stats = tl.source_stats(rng.normal(size=(4, 1, 32, 32)), model, dataset_id="footprint")
    prompts = tl.PromptState(cfg, seed=0)
    image = rng.normal(size=(1, 32, 32))
    tracemalloc.start()
    try:
        tl.adapt_and_predict(image, model, prompts, stats, tl.TTAConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 2**20 < EPISODE_PEAK_MIB


def test_episode_holds_no_step_graph_once_backward_returns(monkeypatch, tiny_model,
                                                           tiny_stats, tiny_data):
    """Each step's loss goes straight into ``backward``: once it returns,
    nothing in the episode holds the loss (seen through its vjp, which only
    the loss holds), so ``backward`` could free every node it passed."""
    import weakref

    backward, alive = ad.backward, []

    def spy(loss):
        ref, box = weakref.ref(loss._vjp), [loss]
        del loss
        grads = backward(box.pop())
        alive.append(ref() is not None)
        return grads

    monkeypatch.setattr(tta.ad, "backward", spy)
    _, _, test = tiny_data
    config = tl.TTAConfig(beta=100.0, n_views=4, n_steps=2, seed=0)
    tl.adapt_and_predict(test.images[0].astype(np.float64), tiny_model,
                         tl.PromptState(tiny_model.config, seed=0), tiny_stats, config)
    assert alive == [False, False]


# -- config validation ----------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigurationError):
        tl.TTAConfig(filter_ratio=0.0)
    with pytest.raises(ConfigurationError):
        tl.TTAConfig(filter_ratio=1.5)
    with pytest.raises(ConfigurationError):
        tl.TTAConfig(beta=-1.0)
    with pytest.raises(ConfigurationError):
        tl.TTAConfig(n_views=0)
    with pytest.raises(ConfigurationError):
        tl.TTAConfig(mode="batch")
    with pytest.raises(ConfigurationError, match="continuous mode was removed"):
        tl.TTAConfig(mode="continuous")
    with pytest.raises(ConfigurationError):
        tl.TTAConfig(align_loss="cmd-1")
    bad = [
        {"align_layers": ()},
        {"beta": float("nan")}, {"beta": float("inf")},
        {"learning_rate": 0.0}, {"learning_rate": -1e-3},
        {"learning_rate": float("nan")}, {"learning_rate": float("inf")},
        {"crop_min_scale": 0.0}, {"crop_min_scale": 1.5}, {"crop_min_scale": float("nan")},
        {"weight_decay": -5.0}, {"weight_decay": float("nan")}, {"weight_decay": float("inf")},
        {"beta": "x"}, {"crop_min_scale": "x"}, {"filter_ratio": None}, {"learning_rate": True},
        {"align_loss": 3}, {"align_layers": 5}, {"update_coupling": "no"}, {"seed": "x"},
    ]
    for kwargs in bad:
        with pytest.raises(ConfigurationError):
            tl.TTAConfig(**kwargs)
    tl.TTAConfig(crop_min_scale=1.0, align_layers=(2,))
    tl.TTAConfig(weight_decay=0.5)
    bad_model = [
        {"n_heads": 0}, {"image_size": 0}, {"patch_size": -8}, {"n_vision_layers": 0},
        {"n_prompt_tokens": 0}, {"mlp_ratio": 0},
        {"temperature": 0.0}, {"temperature": -1.0}, {"temperature": float("nan")},
        {"temperature": "x"}, {"class_names": (1, 2)}, {"class_names": "ab"},
    ]
    for kwargs in bad_model:
        with pytest.raises(ConfigurationError):
            tl.ModelConfig(**kwargs)


@pytest.mark.parametrize("build", [
    lambda: tl.TTAConfig(n_views=2.5),
    lambda: tl.TTAConfig(n_steps=1.5),
    lambda: tl.TTAConfig(seed=1.5),
    lambda: tl.TTAConfig(seed="1"),
    lambda: tl.TTAConfig(align_layers=(1, 2.0)),
    lambda: generate_views(np.zeros((1, 16, 16)), 8, 1.5),
    lambda: tl.ModelConfig(n_heads=2.0),
    lambda: tl.TTAConfig(seed=True),
    lambda: tl.ModelConfig(prompt_depth=True),
    lambda: generate_views(np.zeros((1, 16, 16)), 1, 1.5),
    lambda: generate_views(np.zeros((1, 16, 16)), 1, "x"),
    lambda: generate_views(np.zeros((1, 16, 16)), 1, True),
    lambda: harness.run_eval(None, None, None, tl.TTAConfig(), limit=1.5),
    lambda: harness.run_eval(None, None, None, tl.TTAConfig(), limit=True),
    lambda: harness.run_eval(None, None, None, tl.TTAConfig(), workers=2.5),
    lambda: harness.zero_shot_top1(None, None, limit=1.5),
    lambda: harness.GenConfig(n_source=1.5),
    lambda: harness.GenConfig(image_size=True),
], ids=["n_views", "n_steps", "seed", "seed-str", "align_layers", "view-seed", "model-field",
        "bool-seed", "bool-depth", "one-view-seed", "one-view-seed-str", "one-view-bool-seed",
        "eval-limit", "eval-bool-limit", "eval-workers", "zero-shot-limit", "gen-count",
        "gen-bool-size"])
def test_integer_fields_reject_non_integers(build):
    """A float that would truncate, a string or a bool never stands in for an
    int; a Philox seed of 1.5 (or True) would otherwise draw the views of seed 1."""
    with pytest.raises(ConfigurationError, match="must be an int"):
        build()


@pytest.mark.parametrize("kwargs", [
    {"n_episodes": 0}, {"n_episodes": -3},
    {"step": 0.0}, {"step": -1e-5}, {"step": float("nan")}, {"step": float("inf")},
    {"n_episodes": 1.5}, {"n_episodes": True}, {"step": "x"}, {"step": True},
])
def test_gradient_suite_rejects_checks_it_cannot_run(kwargs):
    with pytest.raises(ConfigurationError):
        tl.gradient_suite(**kwargs)


def test_gradient_suite_fails_on_nan_finite_difference(monkeypatch):
    losses = tta.suite_losses

    def nan_in_first_set(*args):
        out = losses(*args)
        if out["align_l2"].ndim == 1:  # a stacked finite-difference call
            mask = np.ones(out["align_l2"].shape)
            mask[0] = np.nan
            out["align_l2"] = out["align_l2"] * mask
        return out

    monkeypatch.setattr(tta, "suite_losses", nan_in_first_set)
    errors = tl.gradient_suite(n_episodes=1, seed=0)
    assert errors.pop("align_l2") == math.inf
    assert max(errors.values()) < 1e-4


def test_gradient_suite_redraws_a_moment_next_to_its_kink():
    """Seed 2381381668582092672 first draws an episode whose order-4 test
    moment lies 1.87e-5 from its source value while such moments reach
    about 20, so a step of 1e-5 in a prompt entry carries it across the kink
    of the cmd-5 term (an error of 0.17 when only margins under 1e-6 were
    redrawn). The guard scales with the step and redraws it."""
    errors = tl.gradient_suite(n_episodes=1, seed=2381381668582092672)
    assert max(errors.values()) < 1e-4, errors
