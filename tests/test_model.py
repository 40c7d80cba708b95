import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from carrierstream import (
    CapacityError,
    DegenerateInputError,
    FormatError,
    KvCache,
    ModelConfig,
    OrderingError,
    PayloadLengthError,
    ShapeError,
    attention_forward,
    batch_loss,
    build_batch,
    build_streaming_mask,
    embed_positions,
    forward_step,
    get_param,
    init_model,
    init_stub,
    iter_params,
    load_checkpoint,
    make_plan,
    save_checkpoint,
    set_param,
    ConfigError,
    TaskSpec,
)


def test_attention_hand_check():
    # single head, d=2, identity Q=K=V, causal mask, scale 1/sqrt(2)
    q = np.eye(2, dtype=np.float32)
    kv = np.eye(2, dtype=np.float32).reshape(2, 1, 2)
    empty = np.zeros((0, 1, 2), dtype=np.float32)
    mask = np.array([[True, False], [True, True]])
    out, probs = attention_forward(q, empty, empty, kv, kv, mask, heads=1)
    e = np.exp(1.0 / np.sqrt(2.0))
    expect_row1 = np.array([1.0, e]) / (1.0 + e)
    np.testing.assert_allclose(out[0], [1.0, 0.0], atol=1e-6)
    np.testing.assert_allclose(out[1], expect_row1, atol=1e-6)
    np.testing.assert_allclose(probs[0, 1], expect_row1, atol=1e-6)
    assert probs[0, 0, 1] == 0.0


def test_attention_uses_cached_keys():
    rng = np.random.default_rng(0)
    d, h = 8, 2
    q = rng.standard_normal((1, d)).astype(np.float32)
    ck = rng.standard_normal((3, h, d // h)).astype(np.float32)
    cv = rng.standard_normal((3, h, d // h)).astype(np.float32)
    nk = rng.standard_normal((1, h, d // h)).astype(np.float32)
    nv = rng.standard_normal((1, h, d // h)).astype(np.float32)
    out_split, _ = attention_forward(q, ck, cv, nk, nv, np.ones((1, 1), dtype=bool), heads=h)
    # same result when all keys arrive as "new"
    allk = np.concatenate([ck, nk], axis=0)
    allv = np.concatenate([cv, nv], axis=0)
    out_flat, _ = attention_forward(
        q, np.zeros((0, h, d // h), np.float32), np.zeros((0, h, d // h), np.float32),
        allk, allv, np.ones((1, 4), dtype=bool), heads=h,
    )
    np.testing.assert_array_equal(out_split, out_flat)


def test_attention_mask_shape_error():
    q = np.zeros((2, 4), dtype=np.float32)
    kv = np.zeros((2, 2, 2), dtype=np.float32)
    empty = np.zeros((0, 2, 2), dtype=np.float32)
    with pytest.raises(ShapeError):
        attention_forward(q, empty, empty, kv, kv, np.ones((2, 3), bool), heads=2)
    with pytest.raises(DegenerateInputError, match="query 1"):  # no cache, and row 1 allows no new key
        attention_forward(q, empty, empty, kv, kv, np.array([[True, False], [False, False]]), heads=2)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 3), arrays(np.bool_, (4, 6)), st.integers(0, 2**32 - 1))
def test_attention_masked_keys_get_exactly_zero(n_cached, mask, seed):
    # every cached key is visible; a masked new key gets probability exactly 0
    mask[:, 0] = True  # keep every row satisfiable
    rng = np.random.default_rng(seed)
    h, dk = 2, 3
    q = rng.standard_normal((4, h * dk)).astype(np.float32)
    ck, cv = rng.standard_normal((2, n_cached, h, dk)).astype(np.float32)
    nk, nv = rng.standard_normal((2, 6, h, dk)).astype(np.float32)
    _, probs = attention_forward(q, ck, cv, nk, nv, mask, heads=h)
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-5)
    assert np.all(probs[:, :, n_cached:][:, ~mask] == 0.0)
    assert np.all(probs[:, :, :n_cached] > 0.0)


def test_init_statistics():
    config = ModelConfig(vocab_size=256, d_model=64, ff_dim=128, heads=4)
    w = init_model(config, seed=7)
    emb = w.tok_emb  # 256*64 = 16384 draws from U(-1/sqrt(d), 1/sqrt(d))
    bound = 1.0 / np.sqrt(config.d_model)
    assert emb.min() >= -bound and emb.max() <= bound
    sd = 2 * bound / np.sqrt(12.0)
    assert abs(emb.mean()) < 3 * sd / np.sqrt(emb.size)
    for layer in w.layers:
        np.testing.assert_array_equal(layer.ln1_g, np.ones(config.d_model, np.float32))
        np.testing.assert_array_equal(layer.ln2_b, np.zeros(config.d_model, np.float32))
    assert all(p.dtype == np.float32 for _, p in iter_params(w))


def test_init_is_seed_deterministic(tiny_config):
    a, b = init_model(tiny_config, seed=3), init_model(tiny_config, seed=3)
    for (pa, va), (pb, vb) in zip(iter_params(a), iter_params(b)):
        assert pa == pb
        np.testing.assert_array_equal(va, vb)
    c = init_model(tiny_config, seed=4)
    assert not np.array_equal(a.tok_emb, c.tok_emb)


def test_adapter_b_zero_init_keeps_output_neutral():
    cfg = ModelConfig(adapter_rank=4)
    w = init_model(cfg, seed=0)
    for layer in w.layers:
        for a, b in layer.adapters.values():
            assert a.any()
            np.testing.assert_array_equal(b, np.zeros_like(b))


def test_loss_at_init_is_log_vocab():
    cfg = ModelConfig(
        layers=2, heads=4, d_model=64, ff_dim=128, vocab_size=32,
        max_positions=96, tokens_per_frame=4, memory_capacity=16, adapter_rank=4,
    )
    task = TaskSpec(frames_per_stream=8, alphabet=16)
    w = init_model(cfg, seed=0)
    stub = init_stub(task, cfg, seed=0)
    rng = np.random.default_rng(0)
    plans = [make_plan(task, cfg, rng) for _ in range(4)]
    batch = build_batch(w, stub, task, plans, stage=2)
    loss = batch_loss(w.astype(np.float64), batch)
    assert abs(loss - np.log(cfg.vocab_size)) < 0.1 * np.log(cfg.vocab_size)


def test_param_paths_roundtrip(tiny_weights):
    paths = [p for p, _ in iter_params(tiny_weights)]
    assert len(paths) == len(set(paths))
    assert "layers.0.wq" in paths and "unembed" in paths
    probe = get_param(tiny_weights, "layers.1.w1")
    set_param(tiny_weights, "layers.1.w1", probe * 2.0)
    np.testing.assert_array_equal(get_param(tiny_weights, "layers.1.w1"), probe * 2.0)


def test_checkpoint_roundtrip(tmp_path, tiny_weights):
    path = str(tmp_path / "w.bin")
    save_checkpoint(path, tiny_weights)
    loaded = load_checkpoint(path)
    assert loaded.stub is None
    assert loaded.weights.config == tiny_weights.config
    for (pa, va), (pb, vb) in zip(iter_params(tiny_weights), iter_params(loaded.weights)):
        assert pa == pb
        np.testing.assert_array_equal(va, vb)


def test_checkpoint_roundtrip_with_stub(tmp_path, tiny_weights):
    stub = np.random.default_rng(0).standard_normal((16, 32)).astype(np.float32)
    path = str(tmp_path / "w.bin")
    save_checkpoint(path, tiny_weights, stub=stub)
    loaded = load_checkpoint(path)
    np.testing.assert_array_equal(loaded.stub, stub)


def test_checkpoint_rejects_corruption(tmp_path, tiny_weights):
    path = str(tmp_path / "w.bin")
    save_checkpoint(path, tiny_weights)
    raw = open(path, "rb").read()

    bad = str(tmp_path / "bad.bin")
    open(bad, "wb").write(b"XXXX" + raw[4:])
    with pytest.raises(FormatError):
        load_checkpoint(bad)

    open(bad, "wb").write(raw[: len(raw) - 9])
    with pytest.raises(PayloadLengthError):
        load_checkpoint(bad)

    open(bad, "wb").write(raw + b"\x00")
    with pytest.raises(FormatError):
        load_checkpoint(bad)


def test_kv_cache_metadata_shared_across_layers(tiny_config):
    cache = KvCache(tiny_config)
    h, dk, L = tiny_config.heads, tiny_config.head_dim, tiny_config.layers
    rng = np.random.default_rng(0)
    k = [rng.standard_normal((3, h, dk)).astype(np.float32) for _ in range(L)]
    v = [rng.standard_normal((3, h, dk)).astype(np.float32) for _ in range(L)]
    keep = np.array([True, False, True])
    cache.append(k, v, keep, ["system", "frame", "carrier"], np.arange(3), np.array([-1, 0, 0]))
    assert len(cache) == 2
    assert cache.tags == ["system", "carrier"]
    np.testing.assert_array_equal(cache.positions, [0, 2])
    assert cache.max_position == 2
    for layer in range(L):
        np.testing.assert_array_equal(cache.k[layer], k[layer][keep])

    assert cache.delete_origin(0) == 1
    assert cache.tags == ["system"]
    assert cache.delete_tag("system") == 1
    assert len(cache) == 0
    assert cache.max_position == -1


def test_embed_positions_bounds(tiny_config, tiny_weights):
    x = np.zeros((2, tiny_config.d_model), dtype=np.float32)
    out = embed_positions(x, tiny_weights.pos_emb, np.array([0, 5]))
    np.testing.assert_array_equal(out[1], tiny_weights.pos_emb[5])
    with pytest.raises(CapacityError):
        embed_positions(x, tiny_weights.pos_emb, np.array([0, tiny_config.max_positions]))


def test_forward_step_shapes_and_ordering(tiny_config, tiny_weights):
    cache = KvCache(tiny_config)
    emb = np.zeros((2, tiny_config.d_model), dtype=np.float32)
    mask = build_streaming_mask("system", 2).allow
    logits = forward_step(
        tiny_weights, cache, emb, np.array([0, 1]), mask, new_tags=["system", "system"],
    )
    assert logits.shape == (2, tiny_config.vocab_size)
    assert len(cache) == 2

    mask2 = build_streaming_mask("text", 1).allow
    with pytest.raises(OrderingError):  # position 1 is already taken
        forward_step(tiny_weights, cache, emb[:1], np.array([1]), mask2, new_tags=["text"])
    with pytest.raises(ShapeError):
        forward_step(tiny_weights, cache, emb[:1], np.array([5]), mask2, new_tags=["text", "text"])


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(d_model=30, heads=4)  # not divisible
    with pytest.raises(ConfigError):
        ModelConfig(layers=0)
    with pytest.raises(ConfigError):
        ModelConfig(carrier_mode="median")
    with pytest.raises(ConfigError):
        ModelConfig.from_dict({"layers": 2, "nonsense": 1})
    d = ModelConfig().to_dict()
    assert ModelConfig.from_dict(d) == ModelConfig()
