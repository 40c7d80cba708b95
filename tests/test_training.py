import math

import numpy as np
import pytest

from carrierstream import (
    ConfigError,
    KvCache,
    ModelConfig,
    TaskSpec,
    TrainConfig,
    Weights,
    all_param_paths,
    batch_loss_and_grads,
    backward,
    build_batch,
    cross_entropy,
    evaluate_recall,
    forward_step,
    forward_train,
    frames_for_engine,
    get_param,
    grad_check,
    init_model,
    init_stub,
    iter_params,
    make_plan,
    Optimizer,
    train_stage1,
    train_stage2,
    trainable_paths,
    TrainBatch,
)
from carrierstream.masking import SegmentLayout, build_semantic_mask
from carrierstream.training import _assemble_grads

CFG = ModelConfig(
    layers=1, heads=2, d_model=32, ff_dim=64, vocab_size=32,
    max_positions=96, tokens_per_frame=4, memory_capacity=16, adapter_rank=2,
)
TASK = TaskSpec(frames_per_stream=4, alphabet=16, questions_per_stream=2)


def quick_cfg(stage, **kw):
    base = dict(stage=stage, steps=4, batch_size=2, lr=1e-3, seed=0, log_every=2)
    base.update(kw)
    return TrainConfig(**base)


def params_snapshot(w: Weights) -> dict[str, np.ndarray]:
    return {p: v.copy() for p, v in iter_params(w)}


def test_task_spec_token_layout():
    t = TaskSpec(frames_per_stream=4, alphabet=16)
    assert t.idx_token(0) == 16 and t.idx_token(3) == 19
    assert t.qmark_id == 20
    assert t.required_vocab == 24
    assert t.question_len() == len(t.prefix()) + 1


def test_task_spec_validation():
    with pytest.raises(ConfigError):
        TaskSpec(frames_per_stream=4, alphabet=64).validate(CFG)  # vocab overflow
    with pytest.raises(ConfigError):
        TaskSpec(frames_per_stream=4, alphabet=16, questions_per_stream=9).validate(CFG)
    TASK.validate(CFG)


def test_plan_is_rng_driven_and_answers_resolve():
    rng = np.random.default_rng(0)
    plan = make_plan(TASK, CFG, rng)
    assert plan.symbols.shape == (4, CFG.tokens_per_frame)
    assert plan.noise.shape == (4, CFG.tokens_per_frame, CFG.d_model)
    assert len(set(plan.question_frames.tolist())) == len(plan.question_frames)
    for k in plan.question_frames:
        assert plan.answer(int(k), TASK) == int(plan.symbols[int(k), TASK.answer_row])


def test_frames_for_engine_carries_symbols():
    rng = np.random.default_rng(1)
    plan = make_plan(TASK, CFG, rng)
    stub = init_stub(TASK, CFG, seed=0)
    frames = frames_for_engine(plan, stub, TASK)
    assert len(frames) == 4
    assert frames[0].embeddings.shape == (CFG.tokens_per_frame, CFG.d_model)
    # row j of frame t is stub[symbols[t, j]] plus small noise
    expect = stub[plan.symbols[2, 1]]
    got = frames[2].embeddings[1]
    assert np.abs(got - expect).max() < 5 * TASK.noise_scale


def test_stage1_batch_has_no_frame_rows_and_deployment_positions():
    w = init_model(CFG, seed=0)
    stub = init_stub(TASK, CFG, seed=0)
    rng = np.random.default_rng(0)
    plans = [make_plan(TASK, CFG, rng) for _ in range(2)]
    batch = build_batch(w, stub, TASK, plans, stage=1)
    n, f = CFG.tokens_per_frame, TASK.frames_per_stream
    s = len(TASK.system_ids)
    # carriers-only sequence, but carrier t keeps its streaming position
    assert batch.embeds.shape[1] == s + f + TASK.text_len()
    for t in range(f):
        assert batch.positions[s + t] == s + t * (n + 1) + n
    assert batch.positions[s + f] == s + f * (n + 1)  # first text slot


def test_stage2_batch_targets_answer_tokens():
    w = init_model(CFG, seed=0)
    stub = init_stub(TASK, CFG, seed=0)
    rng = np.random.default_rng(0)
    plans = [make_plan(TASK, CFG, rng) for _ in range(3)]
    batch = build_batch(w, stub, TASK, plans, stage=2)
    for b, plan in enumerate(plans):
        for j, k in enumerate(plan.question_frames):
            assert batch.targets[b, j] == plan.answer(int(k), TASK)
    # every loss position is the slot right before its answer token
    qlen = TASK.question_len()
    step = qlen + 1
    tstart = batch.embeds.shape[1] - TASK.text_len()
    for j in range(TASK.questions_per_stream):
        assert batch.loss_pos[0, j] == tstart + j * step + (qlen - 1)


def test_assembled_scatter_gradients_match_manual_loop():
    w = init_model(CFG, seed=0).astype(np.float64)
    stub = init_stub(TASK, CFG, seed=0).astype(np.float64)
    rng = np.random.default_rng(0)
    plans = [make_plan(TASK, CFG, rng) for _ in range(2)]
    batch = build_batch(w, stub, TASK, plans, stage=2)
    _, grads, d_embeds, _ = batch_loss_and_grads(w, batch)
    _assemble_grads(w, stub, batch, grads, d_embeds)

    tok = np.zeros_like(w.tok_emb)
    for b in range(batch.tok_map.shape[0]):
        for s in range(batch.tok_map.shape[1]):
            t = batch.tok_map[b, s]
            if t >= 0:
                tok[t] += d_embeds[b, s]
    np.testing.assert_allclose(grads["tok_emb"], tok, atol=1e-12)

    st = np.zeros_like(stub)
    b_idx, s_idx, sym, coeff = batch.stub_scatter
    for i in range(len(b_idx)):
        st[sym[i]] += coeff[i] * d_embeds[b_idx[i], s_idx[i]]
    np.testing.assert_allclose(grads["stub"], st, atol=1e-12)


CFG2 = ModelConfig(**{**CFG.to_dict(), "layers": 2})


def _random_adapters(w: Weights, rng: np.random.Generator) -> None:
    # zero b factors would zero the a-factor gradients
    for lw in w.layers:
        for name, (a, b) in lw.adapters.items():
            lw.adapters[name] = (a, rng.normal(0.0, 0.4, size=b.shape))


@pytest.mark.parametrize("stage", [1, 2])
def test_backward_computes_exactly_the_wanted_gradients(stage):
    w = init_model(CFG2, seed=0).astype(np.float64)
    rng = np.random.default_rng(stage)
    _random_adapters(w, rng)
    stub = init_stub(TASK, CFG2, seed=0).astype(np.float64)
    batch = build_batch(w, stub, TASK, [make_plan(TASK, CFG2, rng) for _ in range(3)], stage)
    logits, tape, _ = forward_train(w, batch)
    _, dlogits, _ = cross_entropy(logits, batch)
    full, d_full = backward(w, batch, tape, dlogits)
    _assemble_grads(w, stub, batch, full, d_full)
    assert set(full) == set(all_param_paths(w))

    wanted = trainable_paths(w, stage)
    part, d_part = backward(w, batch, tape, dlogits, wanted=wanted)
    _assemble_grads(w, stub, batch, part, d_part, wanted=wanted)
    assert sorted(part) == sorted(wanted)
    assert np.array_equal(d_part, d_full)
    for path in wanted:
        assert np.array_equal(part[path], full[path]), path


@pytest.mark.parametrize("stage", [1, 2])
def test_stage_training_equals_a_full_gradient_loop(stage):
    # the trainer computes only its stage's gradients; a loop that computes
    # every gradient and steps the same parameters must give the same bits
    w0 = init_model(CFG2, seed=6)
    _random_adapters(w0, np.random.default_rng(6))
    stub0 = init_stub(TASK, CFG2, seed=6)
    cfg = TrainConfig(stage=stage, steps=2, batch_size=3, lr=1e-2, seed=8, log_every=1)
    trained, stub, metrics = (train_stage1 if stage == 1 else train_stage2)(w0, TASK, cfg, stub0)

    w64 = w0.astype(np.float64)
    stub64 = stub0.astype(np.float64)
    paths = trainable_paths(w64, stage)
    params = {p: (stub64 if p == "stub" else get_param(w64, p)) for p in paths}
    opt = Optimizer(cfg)
    rng = np.random.default_rng(cfg.seed)
    for step in range(cfg.steps):
        batch = build_batch(w64, stub64, TASK, [make_plan(TASK, CFG2, rng) for _ in range(3)], stage)
        loss, grads, d_embeds, _ = batch_loss_and_grads(w64, batch)
        _assemble_grads(w64, stub64, batch, grads, d_embeds)
        gnorm = math.sqrt(sum(float((grads[p] ** 2).sum()) for p in paths))
        opt.step(params, grads)
        assert metrics[step]["loss"] == loss and metrics[step]["grad_norm"] == gnorm
    for (path, got), (_, expect) in zip(iter_params(trained), iter_params(w64.astype(np.float32))):
        assert np.array_equal(got, expect), path
    assert np.array_equal(stub, stub64.astype(np.float32))


def test_cross_entropy_hand_value():
    logits = np.zeros((1, 3, 4))
    logits[0, 2] = np.log([0.1, 0.2, 0.3, 0.4])
    batch = TrainBatch(
        embeds=np.zeros((1, 3, 2)),
        positions=np.arange(3),
        mask=np.tril(np.ones((3, 3), bool)),
        loss_pos=np.array([[2]]),
        targets=np.array([[3]]),
    )
    loss, dlogits, acc = cross_entropy(logits, batch)
    assert loss == pytest.approx(-np.log(0.4), abs=1e-9)
    assert acc == 1.0
    np.testing.assert_allclose(
        dlogits[0, 2], [0.1, 0.2, 0.3, 0.4 - 1.0], atol=1e-9
    )
    assert dlogits[0, 0].sum() == 0.0  # non-loss rows get no gradient


def test_adam_single_step():
    p = {"x": np.array([1.0])}
    g = {"x": np.array([0.5])}
    cfg = TrainConfig(stage=1, lr=0.1)
    Optimizer(cfg).step(p, g)
    # first Adam step moves by ~lr regardless of gradient scale
    expect = 1.0 - 0.1 * 0.5 / (np.sqrt(0.25) + cfg.eps)
    np.testing.assert_allclose(p["x"], [expect], atol=1e-12)


def test_trainable_path_selection():
    w = init_model(CFG, seed=0)
    adapters = trainable_paths(w, 1)
    backbone = trainable_paths(w, 2)
    assert "stub" in adapters
    assert all(".adapters." in p or p == "stub" for p in adapters)
    assert not any(".adapters." in p or p == "stub" for p in backbone)
    assert set(adapters) | set(backbone) == set(all_param_paths(w))
    with pytest.raises(Exception):
        trainable_paths(w, 3)


def test_stage1_freezes_backbone_bitwise():
    w = init_model(CFG, seed=1)
    before = params_snapshot(w)
    trained, stub, metrics = train_stage1(w, TASK, quick_cfg(1))
    moved = 0
    for path, old in before.items():
        new = dict(iter_params(trained))[path]
        if ".adapters." in path:
            moved += int(not np.array_equal(new, old))
        else:
            np.testing.assert_array_equal(new, old, err_msg=path)
    assert moved > 0
    assert len(metrics) >= 1
    assert {"step", "loss", "grad_norm", "accuracy"} <= set(metrics[0])


def test_stage2_freezes_adapters_and_stub_bitwise():
    w = init_model(CFG, seed=2)
    w1, stub, _ = train_stage1(w, TASK, quick_cfg(1))
    before = params_snapshot(w1)
    stub_before = stub.copy()
    w2, stub_out, _ = train_stage2(w1, TASK, quick_cfg(2), stub)
    assert stub_out is stub
    np.testing.assert_array_equal(stub_out, stub_before)
    changed = 0
    for path, old in before.items():
        new = dict(iter_params(w2))[path]
        if ".adapters." in path:
            np.testing.assert_array_equal(new, old, err_msg=path)
        else:
            changed += int(not np.array_equal(new, old))
    assert changed > 0


def test_zero_lr_is_bitwise_noop():
    w = init_model(CFG, seed=3)
    before = params_snapshot(w)
    stub0 = init_stub(TASK, CFG, seed=0)
    trained, stub, _ = train_stage1(w, TASK, quick_cfg(1, lr=0.0), stub=stub0)
    for path, old in before.items():
        np.testing.assert_array_equal(dict(iter_params(trained))[path], old)
    np.testing.assert_array_equal(stub, stub0)


def test_training_is_seed_deterministic():
    a, _, _ = train_stage1(init_model(CFG, seed=4), TASK, quick_cfg(1, seed=7))
    b, _, _ = train_stage1(init_model(CFG, seed=4), TASK, quick_cfg(1, seed=7))
    for (pa, va), (pb, vb) in zip(iter_params(a), iter_params(b)):
        np.testing.assert_array_equal(va, vb, err_msg=pa)


def test_target_loss_stops_early():
    w = init_model(CFG, seed=5)
    _, _, metrics = train_stage1(w, TASK, quick_cfg(1, steps=50, target_loss=1e9))
    assert metrics[-1]["step"] < 49


def test_stage_guards():
    w = init_model(CFG, seed=0)
    with pytest.raises(ConfigError):
        train_stage1(w, TASK, quick_cfg(2))
    with pytest.raises(ConfigError):
        train_stage2(w, TASK, quick_cfg(1), init_stub(TASK, CFG, seed=0))
    no_adapters = init_model(ModelConfig(**{**CFG.to_dict(), "adapter_rank": 0}), seed=0)
    with pytest.raises(ConfigError):
        train_stage1(no_adapters, TASK, quick_cfg(1))


def test_trainer_forward_equals_engine_forward():
    # one model definition: at float64 the batched trainer and the engine's
    # forward_step on a fresh cache give the same logits, bit for bit
    config = ModelConfig(**{**CFG.to_dict(), "layers": 2})
    layout = SegmentLayout(
        system=len(TASK.system_ids),
        frame_sizes=(config.tokens_per_frame,) * TASK.frames_per_stream,
        text=TASK.text_len(),
    )
    spec = build_semantic_mask(layout)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        w64 = init_model(config, seed=seed).astype(np.float64)
        for lw in w64.layers:
            for name, (a, b) in lw.adapters.items():
                lw.adapters[name] = (a, rng.normal(0.0, 0.4, size=b.shape))
        stub = init_stub(TASK, config, seed=seed).astype(np.float64)
        plans = [make_plan(TASK, config, rng) for _ in range(3)]
        batch = build_batch(w64, stub, TASK, plans, stage=2)
        assert np.array_equal(batch.mask, spec.allow)
        logits, _, _ = forward_train(w64, batch, want_tape=False)
        assert logits.dtype == np.float64
        for i in range(len(plans)):
            engine = forward_step(
                w64, KvCache(config), batch.embeds[i], batch.positions, spec.allow, list(spec.tags)
            )
            assert np.array_equal(logits[i], engine), (seed, i)


def test_grad_check_small():
    w = init_model(CFG, seed=0)
    report = grad_check(w, TASK, n_coords=60, seed=0)
    assert report["max_rel_err"] <= 1e-5
    assert report["coords_checked"] >= 60
    assert "stub" in report["per_group"]


def test_evaluate_recall_bounds_and_question_count():
    w = init_model(CFG, seed=0)
    stub = init_stub(TASK, CFG, seed=0)
    acc = evaluate_recall(w, stub, TASK, CFG, streams=3, seed=11)
    assert 0.0 <= acc <= 1.0
    acc1 = evaluate_recall(w, stub, TASK, CFG, streams=3, seed=11, questions=1)
    assert 0.0 <= acc1 <= 1.0
