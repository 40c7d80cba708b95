import itertools
import math

import numpy as np
import pytest

from carrierstream import (
    ConfigError,
    KvCache,
    ModelConfig,
    ShapeError,
    TaskSpec,
    TrainConfig,
    Weights,
    all_param_paths,
    batch_loss,
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
from carrierstream.autodiff import _ln_backward, _proj_backward
from carrierstream.masking import SegmentLayout, build_semantic_mask
from carrierstream.model import _project, _row_plan, attention_core, embed_positions
from carrierstream.numerics import gelu, gelu_grad, layer_norm
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
    # the logits are the read rows': row 2 is the only row the loss reads
    logits = np.log([0.1, 0.2, 0.3, 0.4]).reshape(1, 1, 4)
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
    assert dlogits.shape == (1, 1, 4)
    np.testing.assert_allclose(
        dlogits[0, 0], [0.1, 0.2, 0.3, 0.4 - 1.0], atol=1e-9
    )


def test_a_repeated_loss_column_counts_twice_in_the_gradient():
    # the mean of two equal terms is the term: a stream listing column 7
    # twice has the loss and the gradients of listing it once
    w = init_model(CFG, seed=0).astype(np.float64)
    rng = np.random.default_rng(0)
    embeds = rng.standard_normal((1, 10, CFG.d_model))

    def run(columns):
        return batch_loss_and_grads(w, TrainBatch(
            embeds=embeds, positions=np.arange(10), mask=np.tril(np.ones((10, 10), bool)),
            loss_pos=np.array([columns]), targets=np.full((1, len(columns)), 3),
        ))

    (loss2, grads2, d2, _), (loss1, grads1, d1, _) = run([7, 7]), run([7])
    assert loss2 == loss1
    assert np.array_equal(d2, d1)
    for path in grads1:
        assert np.array_equal(grads2[path], grads1[path]), path


def test_loss_columns_outside_the_sequence_are_rejected():
    w = init_model(CFG, seed=0).astype(np.float64)
    for columns in ([-1], [10]):
        batch = TrainBatch(
            embeds=np.zeros((1, 10, CFG.d_model)), positions=np.arange(10),
            mask=np.tril(np.ones((10, 10), bool)), loss_pos=np.array([columns]),
            targets=np.array([[3]]),
        )
        with pytest.raises(ShapeError):
            batch_loss(w, batch)


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
    # forward_step on a fresh cache, caching no row and reading the loss
    # columns, plan the same rows and give the same logits, bit for bit
    layout = SegmentLayout(
        system=len(TASK.system_ids),
        frame_sizes=(CFG2.tokens_per_frame,) * TASK.frames_per_stream,
        text=TASK.text_len(),
    )
    for carrier_mode, stage, seed in itertools.product(["mean", "last_token"], [1, 2], range(3)):
        config = ModelConfig(**{**CFG2.to_dict(), "carrier_mode": carrier_mode})
        rng = np.random.default_rng(seed)
        w64 = init_model(config, seed=seed).astype(np.float64)
        _random_adapters(w64, rng)
        stub = init_stub(TASK, config, seed=seed).astype(np.float64)
        plans = [make_plan(TASK, config, rng) for _ in range(3)]
        batch = build_batch(w64, stub, TASK, plans, stage=stage)
        if stage == 2:
            assert np.array_equal(batch.mask, build_semantic_mask(layout).allow)
        logits, _, _ = forward_train(w64, batch, want_tape=False)
        assert logits.dtype == np.float64
        assert logits.shape == (len(plans), TASK.questions_per_stream, config.vocab_size)
        uncached = ["frame"] * batch.embeds.shape[1]  # a tag the cache never keeps
        for i in range(len(plans)):
            engine = forward_step(
                w64, KvCache(config), batch.embeds[i], batch.positions, batch.mask, uncached,
                logit_rows=batch.loss_pos[i],
            )
            assert np.array_equal(logits[i], engine), (carrier_mode, stage, seed, i)


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


# ---------------------------------------------------------------------------
# the planned trainer against a full-row reference
# ---------------------------------------------------------------------------


def _full_row_loss_and_grads(w, batch):
    """(loss, grads of every path backward owns, d-embeddings) from a
    forward and backward that run every row through every layer and
    compute every row's logits; the loss gradient is scattered into the
    (b, s, V) logits at the loss columns. The reference for the trainer,
    which runs only the rows the loss reads."""
    config = w.config
    b, s, d = batch.embeds.shape
    heads, dk = config.heads, config.head_dim

    def split(y):
        return y.reshape(b, s, heads, dk).transpose(0, 2, 1, 3)

    def merge(y):
        return y.transpose(0, 2, 1, 3).reshape(b, s, d)

    x = embed_positions(batch.embeds, w.pos_emb, batch.positions)
    tape = []
    for lw in w.layers:
        a = layer_norm(x, lw.ln1_g, lw.ln1_b)
        qh, kh, vh = (split(_project(a, lw, name)) for name in ("wq", "wk", "wv"))
        oh, probs = attention_core(qh, kh, vh, batch.mask)
        x1 = x + _project(merge(oh), lw, "wo")
        f_in = layer_norm(x1, lw.ln2_g, lw.ln2_b)
        h_pre = f_in @ lw.w1
        tape.append((x, a, qh, kh, vh, probs, merge(oh), x1, f_in, h_pre))
        x = x1 + gelu(h_pre) @ lw.w2
    logits = x @ w.unembed

    at = (np.arange(b)[:, None], batch.loss_pos)
    z = logits[at] - logits[at].max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    picked = (np.arange(b)[:, None], np.arange(batch.loss_pos.shape[1])[None, :], batch.targets)
    loss = float(-logp[picked].mean())
    dz = np.exp(logp)
    dz[picked] -= 1.0
    dz /= dz.shape[0] * dz.shape[1]
    dlogits = np.zeros_like(logits)
    dlogits[at] = dz

    every = lambda path: True  # noqa: E731
    grads = {"unembed": x.reshape(-1, d).T @ dlogits.reshape(-1, config.vocab_size)}
    dx = dlogits @ w.unembed.T
    for layer in range(config.layers - 1, -1, -1):
        lw, p = w.layers[layer], f"layers.{layer}."
        x_in, a, qh, kh, vh, probs, o, x1, f_in, h_pre = tape[layer]
        grads[p + "w2"] = gelu(h_pre).reshape(-1, config.ff_dim).T @ dx.reshape(-1, d)
        dh = (dx @ lw.w2.T) * gelu_grad(h_pre)
        grads[p + "w1"] = f_in.reshape(-1, d).T @ dh.reshape(-1, config.ff_dim)
        dx1 = dx + _ln_backward(dh @ lw.w1.T, x1, lw.ln2_g, grads, p + "ln2_", every)
        doh = split(_proj_backward(dx1, o, lw, "wo", grads, p, every))
        dprobs = doh @ vh.swapaxes(-1, -2)
        dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True)) / np.sqrt(dk)
        d_a = sum(
            _proj_backward(merge(g), a, lw, name, grads, p, every)
            for g, name in ((dscores @ kh, "wq"), (dscores.swapaxes(-1, -2) @ qh, "wk"),
                            (probs.swapaxes(-1, -2) @ doh, "wv"))
        )
        dx = dx1 + _ln_backward(d_a, x_in, lw.ln1_g, grads, p + "ln1_", every)
    grads["pos_emb"] = np.zeros_like(w.pos_emb)
    np.add.at(grads["pos_emb"], batch.positions, dx.sum(axis=0))
    return loss, grads, dx


def _near(got, expect, rel):
    """Max |got - expect| within `rel` of expect's largest magnitude."""
    return np.abs(got - expect).max() <= rel * max(np.abs(expect).max(), 1e-300)


# the criterion-8 shape and task
TRAIN_CFG = ModelConfig(
    layers=2, heads=4, d_model=64, ff_dim=128, vocab_size=32,
    max_positions=96, tokens_per_frame=4, memory_capacity=16, adapter_rank=4,
)
TRAIN_TASK = TaskSpec(frames_per_stream=8, alphabet=16, questions_per_stream=8, noise_scale=0.05)


def _train64(w64, stub64, stage, seed, steps, loss_and_grads):
    """The trainer's loop (`_run_training`) at float64 on w64 and stub64,
    in place, with each step's loss, gradients and d-embeddings from
    `loss_and_grads(weights, batch, paths)`; returns the losses, which
    are what the trainer logs."""
    paths = trainable_paths(w64, stage)
    params = {p: (stub64 if p == "stub" else get_param(w64, p)) for p in paths}
    cfg = TrainConfig(stage=stage, steps=steps, batch_size=16, lr=3e-3,
                      beta2=0.999 if stage == 1 else 0.95, seed=seed)
    opt = Optimizer(cfg)
    rng = np.random.default_rng(cfg.seed)
    losses = []
    for _ in range(steps):
        plans = [make_plan(TRAIN_TASK, w64.config, rng) for _ in range(cfg.batch_size)]
        batch = build_batch(w64, stub64, TRAIN_TASK, plans, stage)
        loss, grads, d_embeds = loss_and_grads(w64, batch, paths)
        _assemble_grads(w64, stub64, batch, grads, d_embeds, wanted=paths)
        opt.step(params, grads)
        losses.append(loss)
    return losses


@pytest.mark.parametrize("carrier_mode", ["mean", "last_token"])
def test_planned_training_tracks_the_full_row_trajectory(carrier_mode):
    # The trainer runs only the rows the loss reads, which sums the same
    # terms as the full-row reference in another order. Tolerances, fixed
    # before measuring: every logged loss within 1e-10 relative, and the
    # final float64 weights and stub within 1e-8, after 20 stage-1 and 20
    # stage-2 steps at the criterion-8 shape.
    config = ModelConfig(**{**TRAIN_CFG.to_dict(), "carrier_mode": carrier_mode})
    planned = lambda w, batch, paths: batch_loss_and_grads(w, batch, wanted=paths)[:3]  # noqa: E731
    full = lambda w, batch, paths: _full_row_loss_and_grads(w, batch)  # noqa: E731
    for seed in range(3):
        w0 = init_model(config, seed=seed)
        stub0 = init_stub(TRAIN_TASK, config, seed=seed)
        sides = []
        for loss_and_grads in (planned, full):
            w64, stub64 = w0.astype(np.float64), stub0.astype(np.float64)
            losses = [_train64(w64, stub64, stage, seed, 20, loss_and_grads) for stage in (1, 2)]
            sides.append((np.concatenate(losses), w64, stub64))
        (got, w_got, stub_got), (ref, w_ref, stub_ref) = sides
        assert np.all(np.abs(got - ref) <= 1e-10 * np.abs(ref)), (seed, np.abs(got / ref - 1).max())
        for (path, a), (_, b) in zip(iter_params(w_got), iter_params(w_ref)):
            assert np.abs(a - b).max() <= 1e-8, (seed, path)
        assert np.abs(stub_got - stub_ref).max() <= 1e-8, seed


def _hand_batch(config, loss_pos, seed):
    """Random streams over a two-frame semantic layout, with the given
    (b, q) loss columns and random targets."""
    rng = np.random.default_rng(seed)
    layout = SegmentLayout(system=2, frame_sizes=(3, 3), text=5)
    s = layout.total
    loss_pos = np.array(loss_pos)
    return TrainBatch(
        embeds=rng.standard_normal((loss_pos.shape[0], s, config.d_model)) * 0.5,
        positions=np.arange(s),
        mask=build_semantic_mask(layout).allow,
        loss_pos=loss_pos,
        targets=rng.integers(0, config.vocab_size, size=loss_pos.shape),
    )


def test_streams_with_different_loss_columns_match_their_own_batches():
    # the batch plans the union of its streams' loss columns; each stream
    # must come out as it does in a batch of its own
    w = init_model(CFG2, seed=9).astype(np.float64)
    _random_adapters(w, np.random.default_rng(9))
    batch = _hand_batch(CFG2, [[9, 12], [11, 14], [3, 12]], seed=9)
    loss, grads, d_embeds, _ = batch_loss_and_grads(w, batch)
    b = batch.loss_pos.shape[0]
    singles = [
        batch_loss_and_grads(w, TrainBatch(
            embeds=batch.embeds[i : i + 1], positions=batch.positions, mask=batch.mask,
            loss_pos=batch.loss_pos[i : i + 1], targets=batch.targets[i : i + 1],
        ))
        for i in range(b)
    ]
    assert loss == pytest.approx(np.mean([one[0] for one in singles]), rel=1e-12)
    assert set(grads) == set(singles[0][1])
    for path in grads:
        assert _near(grads[path], sum(one[1][path] for one in singles) / b, 1e-12), path
    for i, one in enumerate(singles):
        assert _near(d_embeds[i], one[2][0] / b, 1e-12), i


@pytest.mark.parametrize("layers", [1, 2])
def test_rows_outside_the_plan_get_exactly_zero_input_gradient(layers):
    config = ModelConfig(**{**CFG.to_dict(), "layers": layers})
    w = init_model(config, seed=3).astype(np.float64)
    _random_adapters(w, np.random.default_rng(3))
    batch = _hand_batch(config, [[8, 11], [11, 10]], seed=3)
    s = batch.embeds.shape[1]
    read = np.zeros(s, dtype=bool)
    read[batch.loss_pos] = True
    ran = _row_plan(batch.mask, np.zeros(s, dtype=bool), read, layers)[0].inputs
    assert not ran.all()  # rows after the last loss row, and with one layer the frame rows
    loss, grads, d_embeds, _ = batch_loss_and_grads(w, batch)
    assert np.all(d_embeds[:, ~ran] == 0.0)
    assert np.all(np.abs(d_embeds[:, ran]).max(axis=(0, 2)) > 0.0)  # in some stream
    ref_loss, ref_grads, ref_d = _full_row_loss_and_grads(w, batch)
    assert loss == pytest.approx(ref_loss, rel=1e-12)
    assert _near(d_embeds, ref_d, 1e-12)
    assert set(grads) == set(ref_grads)
    for path in grads:
        assert _near(grads[path], ref_grads[path], 1e-12), path
