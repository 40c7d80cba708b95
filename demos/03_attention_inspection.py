"""Look inside a session: attention maps, flop counts, and benchmarks.

Attaching a capture object records per-layer attention rows without
changing the forward pass. The averaged view answers "where does the
answer look?" broken down by segment (system prompt, carriers, text).
"""

import os
import tempfile

from carrierstream import (
    AttentionCapture,
    BenchSchedule,
    CaptureFilter,
    FlopCounter,
    ModelConfig,
    StreamSession,
    averaged_generated_attention,
    bench_serving,
    init_model,
    make_random_frames,
    record_attention,
    step_flops,
    write_attention_csv,
    write_bench_json,
)

config = ModelConfig(
    layers=2,
    heads=2,
    d_model=32,
    ff_dim=64,
    vocab_size=64,
    max_positions=512,
    tokens_per_frame=4,
    memory_capacity=8,
)
weights = init_model(config, seed=0)
SYSTEM = [1, 2, 3]

# Only generated-text queries are interesting here; skip ingest rows.
capture = AttentionCapture(CaptureFilter(query_tags=("text",)))
flops = FlopCounter(config)
session = StreamSession(
    config, weights, system_tokens=SYSTEM, capture=capture, flops=flops
)
for frame in make_random_frames(6, config.tokens_per_frame, config.d_model, seed=3):
    report = session.ingest_frame(frame)
out = session.ask([9, 10], max_new=3, keep_logits=True)

trace = record_attention(session)
print(f"captured {len(trace.rows)} attention rows on layers {trace.layers()}")

# Average attention mass per key position across the generated tokens.
averaged = averaged_generated_attention(trace)
for layer, view in sorted(averaged.items()):
    by_tag: dict[str, float] = {}
    for tag, score in zip(view["key_tags"], view["scores"]):
        by_tag[tag] = by_tag.get(tag, 0.0) + float(score)
    parts = ", ".join(f"{tag}={mass:.3f}" for tag, mass in sorted(by_tag.items()))
    print(f"layer {layer}: attention mass by segment: {parts}")

with tempfile.TemporaryDirectory() as tmp:
    csv_path = os.path.join(tmp, "attention.csv")
    n = write_attention_csv(csv_path, trace)
    print(f"wrote {n} rows to {csv_path}")

# Closed-form flop model: a step's cost depends only on its shape, so
# steady-state cost is flat. An ingest reads no logits, so it runs (and
# is priced at) less than a full step over the same rows.
m_new = config.tokens_per_frame + 1
n_keys = len(SYSTEM) + len(session.bank) - 1 + m_new  # keys seen by the last ingest
print(f"last ingest flops: {report.flops} (a full step of its shape: {step_flops(config, m_new, n_keys)})")
print(f"counter total so far: {flops.total}")
session.close()

# End-to-end serving benchmark: latency percentiles and a throughput proxy.
schedule = BenchSchedule(frames=40, question_points=(39,), question_ids=(9, 10), max_new=2)
report = bench_serving(config, schedule, seed=0)
summary = report.summary()
print(
    f"ingest p50={summary['ingest_us']['p50']:.0f}us "
    f"p90={summary['ingest_us']['p90']:.0f}us, "
    f"serving proxy {summary['serving_fps_proxy']:.1f} frames/s"
)
with tempfile.TemporaryDirectory() as tmp:
    json_path = os.path.join(tmp, "bench.json")
    write_bench_json(json_path, summary)
    print(f"wrote benchmark summary to {json_path}")
