import csv
import json

import numpy as np
import pytest

from carrierstream import (
    AttentionCapture,
    BenchSchedule,
    CaptureFilter,
    FlopCounter,
    ModelConfig,
    SelectionError,
    StreamSession,
    averaged_generated_attention,
    bench_serving,
    make_random_frames,
    record_attention,
    step_flops,
    write_attention_csv,
    write_bench_json,
)
from conftest import copy_frames

SYSTEM = [1, 2]


def captured_session(config, weights, frames, tags=("text",)):
    capture = AttentionCapture(CaptureFilter(query_tags=tags))
    session = StreamSession(config, weights, system_tokens=SYSTEM, capture=capture)
    for f in frames:
        session.ingest_frame(f)
    return session


def test_capture_does_not_change_logits(tiny_config, tiny_weights, tiny_frames):
    plain = StreamSession(tiny_config, tiny_weights, system_tokens=SYSTEM)
    for f in tiny_frames:
        plain.ingest_frame(f)
    a = plain.ask([5, 6], max_new=2, keep_logits=True)

    watched = captured_session(tiny_config, tiny_weights, copy_frames(tiny_frames), tags=None)
    b = watched.ask([5, 6], max_new=2, keep_logits=True)
    assert a.tokens == b.tokens
    for la, lb in zip(a.step_logits, b.step_logits):
        np.testing.assert_array_equal(la, lb)


def test_attention_rows_sum_to_one(tiny_config, tiny_weights, tiny_frames):
    session = captured_session(tiny_config, tiny_weights, tiny_frames, tags=None)
    session.ask([5], max_new=2)
    trace = record_attention(session)
    assert len(trace.rows) > 0
    for row in trace.rows:
        assert abs(row.scores.sum() - 1.0) <= 1e-5
        assert len(row.scores) == len(row.key_positions) == len(row.key_tags)


def test_capture_filter_restricts_rows(tiny_config, tiny_weights, tiny_frames):
    session = captured_session(tiny_config, tiny_weights, tiny_frames, tags=("text",))
    session.ask([5], max_new=1)
    trace = record_attention(session)
    assert trace.rows and all(r.query_tag == "text" for r in trace.rows)

    only_l1 = AttentionCapture(CaptureFilter(layers=(1,), query_tags=("text",)))
    session2 = StreamSession(
        tiny_config, tiny_weights, system_tokens=SYSTEM, capture=only_l1
    )
    for f in copy_frames(tiny_frames):
        session2.ingest_frame(f)
    session2.ask([5], max_new=1)
    rows = record_attention(session2).rows
    assert rows and all(r.layer == 1 for r in rows)


def test_averaged_attention_aligns_and_normalizes(tiny_config, tiny_weights, tiny_frames):
    session = captured_session(tiny_config, tiny_weights, tiny_frames)
    session.ask([5, 6], max_new=3)
    trace = record_attention(session)
    mean = averaged_generated_attention(trace)
    assert set(mean) == set(range(tiny_config.layers))
    for layer, entry in mean.items():
        # later text rows see more keys; shorter rows are zero-filled,
        # so each averaged row still sums to 1
        assert entry["scores"].sum() == pytest.approx(1.0, abs=1e-5)
        assert list(entry["key_positions"]) == sorted(entry["key_positions"])
        assert len(entry["key_tags"]) == len(entry["key_positions"])

    per_head = averaged_generated_attention(trace, per_head=True)
    assert set(per_head) == {
        (layer, h) for layer in range(tiny_config.layers) for h in range(tiny_config.heads)
    }


def test_averaged_attention_requires_generated_rows(tiny_config, tiny_weights, tiny_frames):
    session = captured_session(tiny_config, tiny_weights, tiny_frames)
    with pytest.raises(SelectionError):
        averaged_generated_attention(record_attention(session))


def test_attention_csv_export(tmp_path, tiny_config, tiny_weights, tiny_frames):
    session = captured_session(tiny_config, tiny_weights, tiny_frames)
    session.ask([5], max_new=2)
    path = str(tmp_path / "attn.csv")
    n = write_attention_csv(path, record_attention(session))
    rows = list(csv.DictReader(open(path)))
    assert len(rows) == n > 0
    assert set(rows[0]) == {"layer", "head", "key_pos", "segment", "score"}
    assert all(r["head"] == "mean" for r in rows)
    by_layer: dict[str, float] = {}
    for r in rows:
        by_layer[r["layer"]] = by_layer.get(r["layer"], 0.0) + float(r["score"])
    for total in by_layer.values():
        assert total == pytest.approx(1.0, abs=1e-4)


def test_step_flops_closed_form():
    config = ModelConfig(layers=3, heads=2, d_model=16, ff_dim=32, vocab_size=64,
                         adapter_rank=2)
    m, n, d, f, h, r = 4, 20, 16, 32, 2, 2
    attn = 4 * 2 * m * d * d + 4 * 4 * m * d * r + 2 * m * n * d + 4 * h * m * n + 2 * m * n * d
    ffn = 2 * (2 * m * d * f) + 10 * m * f
    norms_resid = 2 * 8 * m * d + 2 * m * d
    expect = 3 * (attn + ffn + norms_resid) + 2 * m * d * 64
    assert step_flops(config, m, n) == expect


def test_flops_depend_only_on_shape():
    config = ModelConfig()
    assert step_flops(config, 9, 40) == step_flops(config, 9, 40)
    assert step_flops(config, 9, 41) > step_flops(config, 9, 40)
    assert step_flops(config, 10, 40) > step_flops(config, 9, 40)


def test_flop_counter_accumulates(tiny_config):
    counter = FlopCounter(tiny_config)
    counter.add_step(3, 10)
    counter.add_step(3, 10)
    assert counter.total == 2 * step_flops(tiny_config, 3, 10)
    assert counter.steps[0] == counter.steps[1]


def test_ingest_flops_constant_once_bank_is_full(tiny_weights):
    config = ModelConfig(**{**tiny_weights.config.to_dict(), "memory_capacity": 4})
    frames = make_random_frames(12, config.tokens_per_frame, config.d_model, seed=0)
    counter = FlopCounter(config)
    session = StreamSession(config, tiny_weights, system_tokens=SYSTEM, flops=counter)
    reports = [session.ingest_frame(f) for f in frames]
    full = [r.flops for r in reports[5:]]  # bank full from frame 4 onward
    assert len(set(full)) == 1
    assert reports[0].flops < full[0]  # early cache is smaller


def test_bench_serving_summary_schema():
    config = ModelConfig(layers=1, heads=2, d_model=16, ff_dim=32, vocab_size=32,
                         tokens_per_frame=4, memory_capacity=8, max_positions=4096)
    schedule = BenchSchedule(frames=30, question_points=(20,), question_ids=(3,), max_new=2)
    report = bench_serving(config, schedule, seed=0)
    s = report.summary()
    assert set(s) == {
        "frames", "m", "ingest_us", "ask_us", "serving_fps_proxy",
        "kv_bytes_final", "flops_per_ingest", "flops_by_phase",
    }
    assert s["frames"] == 30 and s["m"] == 8
    assert s["ingest_us"]["p50"] <= s["ingest_us"]["p90"]
    assert s["ask_us"] is not None and s["ask_us"] > 0
    assert s["serving_fps_proxy"] > 0
    assert s["flops_by_phase"]["ingest"] > 0 and s["flops_by_phase"]["ask"] > 0
    # final footprint: system(1) + bank(8) entries, no text retained in summary
    assert s["kv_bytes_final"] > 0


def test_write_bench_json(tmp_path):
    config = ModelConfig(layers=1, heads=2, d_model=16, ff_dim=32, vocab_size=32,
                         tokens_per_frame=4, memory_capacity=8, max_positions=4096)
    schedule = BenchSchedule(frames=10, question_points=(), question_ids=(3,), max_new=1)
    summary = bench_serving(config, schedule, seed=5).summary()

    single = str(tmp_path / "one.json")
    write_bench_json(single, summary)
    with open(single) as fh:
        assert json.load(fh) == summary
