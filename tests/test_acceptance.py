"""Acceptance gate: one test per shipping criterion, at the stated tolerance.

Run with `pytest -v tests/test_acceptance.py` for one pass/fail line per
criterion. The two-stage training bundle (criteria 8 and 9) is trained
once per session and shared.
"""

import time

import numpy as np
import pytest

from carrierstream import (
    EvictionReplay,
    FlopCounter,
    AttentionCapture,
    CaptureFilter,
    CarrierRecord,
    MemoryBank,
    ModelConfig,
    SegmentLayout,
    StreamSession,
    TaskSpec,
    TrainBatch,
    TrainConfig,
    backward,
    build_carrier_embedding,
    build_semantic_mask,
    cross_entropy,
    derive_replay,
    evaluate_recall,
    forward_train,
    grad_check,
    init_model,
    make_random_frames,
    oracle_full_forward,
    oracle_select_victim,
    record_attention,
    remove_carrier_visibility,
    train_stage1,
    train_stage2,
)
from conftest import copy_frames

# the small runtime shape used by criteria 1, 3, 6, 10, 11
RUNTIME_CFG = ModelConfig(
    layers=2, heads=2, d_model=32, ff_dim=64, vocab_size=64,
    max_positions=16384, tokens_per_frame=8, memory_capacity=64,
)
SYSTEM = [1, 2, 3, 4]

# the toy learning shape used by criteria 7, 8, 9
TRAIN_CFG = ModelConfig(
    layers=2, heads=4, d_model=64, ff_dim=128, vocab_size=32,
    max_positions=96, tokens_per_frame=4, memory_capacity=16, adapter_rank=4,
)
TASK = TaskSpec(
    frames_per_stream=8, alphabet=16, questions_per_stream=8, noise_scale=0.05
)
N_SEEDS = 5
DENSE_EVAL = dict(streams=30, seed=999)
NEEDLE_EVAL = dict(streams=100, seed=555, questions=1)


@pytest.fixture(scope="module")
def trained():
    """Five paired two-stage runs plus held-out evaluations."""
    t0 = time.monotonic()
    dense_s1, dense_full, needle = [], [], []
    models = []
    for seed in range(N_SEEDS):
        w0 = init_model(TRAIN_CFG, seed=seed)
        s1_cfg = TrainConfig(stage=1, steps=800, batch_size=16, lr=3e-3,
                             seed=seed, target_loss=0.05)
        w1, stub, _ = train_stage1(w0, TASK, s1_cfg)
        # beta2=0.95 speeds up escape from the answer-from-the-multiset
        # plateau; some inits otherwise sit on it past 2000 steps
        s2_cfg = TrainConfig(stage=2, steps=2000, batch_size=16, lr=3e-3,
                             beta2=0.95, seed=seed, target_loss=0.02)
        w2, stub, _ = train_stage2(w1, TASK, s2_cfg, stub)
        dense_s1.append(evaluate_recall(w1, stub, TASK, TRAIN_CFG, **DENSE_EVAL))
        dense_full.append(evaluate_recall(w2, stub, TASK, TRAIN_CFG, **DENSE_EVAL))
        needle.append(evaluate_recall(w2, stub, TASK, TRAIN_CFG, **NEEDLE_EVAL))
        models.append((w2, stub))
    return {
        "models": models,
        "dense_s1": dense_s1,
        "dense_full": dense_full,
        "needle": needle,
        "seconds": time.monotonic() - t0,
    }


@pytest.fixture(scope="module")
def long_stream():
    """One 1000-frame run for the boundedness criterion."""
    weights = init_model(RUNTIME_CFG, seed=0)
    frames = make_random_frames(
        1000, RUNTIME_CFG.tokens_per_frame, RUNTIME_CFG.d_model, seed=1
    )
    counter = FlopCounter(RUNTIME_CFG)
    session = StreamSession(RUNTIME_CFG, weights, system_tokens=SYSTEM, flops=counter)
    reports = []
    footprint_at_64 = None
    for f in frames:
        reports.append(session.ingest_frame(f))
        if f.frame_index == 63:
            footprint_at_64 = session.kv_footprint(include_text=False)
    return {
        "session": session,
        "reports": reports,
        "footprint_at_64": footprint_at_64,
        "footprint_at_1000": session.kv_footprint(include_text=False),
    }


def test_criterion_01_discard_soundness_oracle():
    # Streaming (prefill-then-discard) must match a full forward pass that
    # keeps every token, to 1e-4 on the question's next-token logits,
    # across 20 seeds, in under 10 seconds.
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(20):
        weights = init_model(RUNTIME_CFG, seed=seed)
        frames = make_random_frames(
            10, RUNTIME_CFG.tokens_per_frame, RUNTIME_CFG.d_model, seed=seed + 1000
        )
        session = StreamSession(RUNTIME_CFG, weights, system_tokens=SYSTEM)
        for f in frames:
            session.ingest_frame(f)
        out = session.ask([5, 6, 7], max_new=1, keep_logits=True)
        oracle = oracle_full_forward(weights, SYSTEM, frames, [5, 6, 7])
        worst = max(worst, float(np.abs(oracle.logits[-1] - out.first_logits).max()))
    elapsed = time.monotonic() - t0
    print(f"criterion 1: max logit delta {worst:.3e} (bar 1e-4), {elapsed:.1f}s")
    assert worst <= 1e-4
    assert elapsed < 10.0


def test_criterion_02_carrier_exactness():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        d = int(rng.integers(4, 64))
        frame = rng.standard_normal((n, d)).astype(np.float32)
        mean = build_carrier_embedding(frame, "mean")
        ref = frame.astype(np.float64).mean(axis=0)
        worst = max(worst, float(np.abs(mean - ref).max()))
        last = build_carrier_embedding(frame, "last_token")
        np.testing.assert_array_equal(last, frame[n - 1])
    print(f"criterion 2: max mean-pool error {worst:.3e} (bar 1e-6)")
    assert worst <= 1e-6


def test_criterion_03_memory_boundedness(long_stream):
    # With M=64, the cache footprint after 1000 frames equals the
    # footprint after 64 frames exactly, and the counted flops of
    # ingest 65 equal those of ingest 1000.
    assert long_stream["footprint_at_64"] == long_stream["footprint_at_1000"]
    flops_65 = long_stream["reports"][64].flops
    flops_1000 = long_stream["reports"][999].flops
    print(
        f"criterion 3: footprint {long_stream['footprint_at_1000']['bytes']} bytes at "
        f"64 and 1000 frames; ingest flops {flops_65} at both probes"
    )
    assert flops_65 == flops_1000


@pytest.mark.parametrize("rule", ["adjacent_pairs", "vs_incoming"])
def test_criterion_04_eviction_matches_exhaustive_scan(rule):
    rng = np.random.default_rng(11)
    m, d = 8, 16
    bank = MemoryBank(capacity=m, rule=rule)

    def rec(t, emb):
        return CarrierRecord(frame_index=t, embedding=emb.astype(np.float32),
                             position=t)

    for t in range(m):
        bank.insert(rec(t, rng.standard_normal(d)))
    mismatches = 0
    for t in range(m, m + 1000):
        incoming = rng.standard_normal(d).astype(np.float32)
        embs = [c.embedding.copy() for c in bank.carriers]
        slot, _ = oracle_select_victim(embs, incoming, rule)
        expect = bank.frame_indices()[slot]
        report = bank.insert(rec(t, incoming))
        mismatches += report.frame_evicted != expect
        assert len(bank) <= m
    print(f"criterion 4 [{rule}]: 1000/1000 victims match the exhaustive scan")
    assert mismatches == 0


def test_criterion_05_mask_blocks_raw_token_leakage():
    # 64-bit gradients of a text-position loss with respect to raw frame
    # tokens: exactly zero once the frame's carrier is masked out,
    # nonzero somewhere with the carrier visible. 10 random layouts.
    rng = np.random.default_rng(500)
    for trial in range(10):
        heads = int(rng.choice([2, 4]))
        d = int(rng.choice([16, 32]))
        frames = tuple(int(x) for x in rng.integers(2, 5, size=int(rng.integers(2, 4))))
        config = ModelConfig(
            layers=2, heads=heads, d_model=d, ff_dim=2 * d, vocab_size=32,
            max_positions=256, tokens_per_frame=max(frames), memory_capacity=16,
        )
        weights = init_model(config, seed=trial).astype(np.float64)
        layout = SegmentLayout(system=2, frame_sizes=frames, text=3)
        target_frame = int(rng.integers(0, len(frames)))
        s = layout.total
        embeds = rng.standard_normal((1, s, d))
        base = build_semantic_mask(layout)

        def frame_grad(mask):
            batch = TrainBatch(
                embeds=embeds.copy(),
                positions=np.arange(s),
                mask=mask.allow,
                loss_pos=np.array([[s - 1]]),
                targets=np.array([[int(rng.integers(0, 32))]]),
            )
            logits, tape, _ = forward_train(weights, batch, want_tape=True)
            _, dlogits, _ = cross_entropy(logits, batch)
            _, d_embeds = backward(weights, batch, tape, dlogits)
            lo, hi = layout.frame_span(target_frame)
            return d_embeds[0, lo:hi, :]

        leak = frame_grad(base)
        assert np.abs(leak).max() > 0.0, f"trial {trial}: no signal with carrier visible"
        blocked = frame_grad(remove_carrier_visibility(base, target_frame))
        assert np.all(blocked == 0.0), f"trial {trial}: leak past a hidden carrier"
    print("criterion 5: 10/10 layouts leak-free with the carrier hidden")


def test_criterion_06_eviction_isolation():
    # The replay schedule evicts the victim's carrier at the start of the
    # very next ingest, before anything retained has attended it. Every
    # logit produced after that point must then be bitwise invariant to
    # the victim frame's contents. (A victim evicted later than that is
    # legitimately visible to intermediate carriers, so bit-invariance
    # is only required of this immediate-eviction schedule.)
    config = ModelConfig(**{**RUNTIME_CFG.to_dict(), "memory_capacity": 4})
    weights = init_model(config, seed=3)
    frames = make_random_frames(8, config.tokens_per_frame, config.d_model, seed=4)

    for victim in (2, 5):
        replay = EvictionReplay(before_frame={victim + 1: (victim,)})

        def run(delta):
            fr = copy_frames(frames)
            fr[victim].embeddings += delta
            session = StreamSession(config, weights, system_tokens=SYSTEM, replay=replay)
            for f in fr:
                session.ingest_frame(f)
            return session.ask([5, 6], max_new=3, keep_logits=True)

        base = run(0.0)
        for delta in (+1.0, -1.0):
            other = run(delta)
            assert base.tokens == other.tokens
            for a, b in zip(base.step_logits, other.step_logits):
                np.testing.assert_array_equal(a, b)
    print(
        "criterion 6: frames 2 and 5 perturbed +/-1.0 after eviction; "
        "every subsequent logit vector bit-identical"
    )


def test_criterion_07_gradient_check():
    weights = init_model(TRAIN_CFG, seed=0)
    report = grad_check(weights, TASK, n_coords=220, h=1e-5, seed=0)
    groups = report["per_group"]
    print(
        f"criterion 7: {report['coords_checked']} coords, "
        f"max rel err {report['max_rel_err']:.3e} (bar 1e-5)"
    )
    assert report["coords_checked"] >= 200
    assert report["max_rel_err"] <= 1e-5
    # every parameter family is represented
    assert "stub" in groups and "tok_emb" in groups and "pos_emb" in groups
    assert any(".adapters." in g for g in groups)
    assert any(".w1" in g for g in groups) and any(".wq" in g for g in groups)


def test_criterion_08_two_stage_training_learns_recall(trained):
    chance = 1.0 / TASK.alphabet  # 6.25%
    needle = float(np.mean(trained["needle"]))
    improvements = np.array(trained["dense_full"]) - np.array(trained["dense_s1"])
    print(
        f"criterion 8: needle recall {needle:.3f} (bar 0.80, chance {chance:.4f}); "
        f"dense improvement per seed {np.round(improvements, 3).tolist()}; "
        f"trained {N_SEEDS} paired seeds in {trained['seconds']:.0f}s (bar 900s)"
    )
    assert needle >= 0.80
    assert float(improvements.mean()) > 0.0
    assert trained["seconds"] < 900.0


def test_criterion_09_ablations_do_not_beat_full_model(trained):
    emb_only_cfg = ModelConfig(**{**TRAIN_CFG.to_dict(), "carrier_kv_mode": "embedding_only"})
    last_cfg = ModelConfig(**{**TRAIN_CFG.to_dict(), "carrier_mode": "last_token"})
    emb_scores, last_scores = [], []
    for w2, stub in trained["models"]:
        emb_scores.append(evaluate_recall(w2, stub, TASK, emb_only_cfg, **DENSE_EVAL))
        last_scores.append(evaluate_recall(w2, stub, TASK, last_cfg, **DENSE_EVAL))
    full = float(np.mean(trained["dense_full"]))
    emb = float(np.mean(emb_scores))
    last = float(np.mean(last_scores))
    print(
        f"criterion 9: full {full:.3f} >= embedding-only {emb:.3f} "
        f"and >= last-token {last:.3f} (mean of {N_SEEDS} seeds)"
    )
    assert full >= emb
    assert full >= last


def test_criterion_10_constant_latency_proxy():
    # The median ingest latency of ingests 900-999 of a 1000-frame stream
    # is within 1.2x of that of ingests 50-149. Two sessions are fed the
    # same frames: one stops before ingest 50, the other before ingest
    # 900, and then the two windows are timed in alternation, one ingest
    # each, so a shift in host speed during the run hits both alike.
    weights = init_model(RUNTIME_CFG, seed=0)
    frames = make_random_frames(
        1000, RUNTIME_CFG.tokens_per_frame, RUNTIME_CFG.d_model, seed=1
    )
    early_session = StreamSession(RUNTIME_CFG, weights, system_tokens=SYSTEM)
    late_session = StreamSession(RUNTIME_CFG, weights, system_tokens=SYSTEM)
    early_frames = copy_frames(frames[:150])
    for f in early_frames[:50]:
        early_session.ingest_frame(f)
    for f in frames[:900]:
        late_session.ingest_frame(f)
    early_lat, late_lat = [], []
    for e, l in zip(early_frames[50:150], frames[900:1000]):
        early_lat.append(early_session.ingest_frame(e).latency_us)
        late_lat.append(late_session.ingest_frame(l).latency_us)
    early = float(np.median(early_lat))
    late = float(np.median(late_lat))
    print(
        f"criterion 10: median ingest {late:.0f}us late vs {early:.0f}us early "
        f"(ratio {late / early:.3f}, bar 1.2)"
    )
    assert late <= 1.2 * early


def test_criterion_11_instrumentation_transparency():
    weights = init_model(RUNTIME_CFG, seed=5)
    frames = make_random_frames(
        6, RUNTIME_CFG.tokens_per_frame, RUNTIME_CFG.d_model, seed=6
    )

    plain = StreamSession(RUNTIME_CFG, weights, system_tokens=SYSTEM)
    for f in frames:
        plain.ingest_frame(f)
    a = plain.ask([5, 6], max_new=3, keep_logits=True)

    capture = AttentionCapture(CaptureFilter())  # observe everything
    watched = StreamSession(
        RUNTIME_CFG, weights, system_tokens=SYSTEM, capture=capture
    )
    for f in copy_frames(frames):
        watched.ingest_frame(f)
    b = watched.ask([5, 6], max_new=3, keep_logits=True)

    assert a.tokens == b.tokens
    for la, lb in zip(a.step_logits, b.step_logits):
        np.testing.assert_array_equal(la, lb)

    rows = record_attention(watched).rows
    sums = np.array([row.scores.sum() for row in rows])
    print(
        f"criterion 11: logits bit-identical under capture; "
        f"{len(rows)} attention rows, row-sum error {np.abs(sums - 1).max():.2e}"
    )
    assert len(rows) > 0
    assert np.abs(sums - 1.0).max() <= 1e-5
