"""Ingest a short stream frame by frame, then ask a question.

Shows the core loop: each frame's tokens are prefetched once, collapsed
into a single carrier entry, and the raw frame K/V is dropped. The
session's footprint therefore grows with the number of carriers, not
with the number of frame tokens seen.
"""

import numpy as np

from carrierstream import (
    ModelConfig,
    StreamSession,
    init_model,
    make_random_frames,
    oracle_full_forward,
)

config = ModelConfig(
    layers=2,
    heads=2,
    d_model=32,
    ff_dim=64,
    vocab_size=64,
    max_positions=512,
    tokens_per_frame=8,
    memory_capacity=16,
)
weights = init_model(config, seed=0)

SYSTEM = [1, 2, 3, 4]  # fixed prompt tokens, always visible
frames = make_random_frames(6, config.tokens_per_frame, config.d_model, seed=1)

session = StreamSession(config, weights, system_tokens=SYSTEM)
for frame in frames:
    report = session.ingest_frame(frame)
    print(
        f"frame {report.frame_index}: bank={report.bank_size} "
        f"kv_bytes={report.kv_bytes} latency_us={report.latency_us:.1f}"
    )

# Footprint before asking: system tokens + one entry per carrier, per layer.
fp = session.kv_footprint(include_text=False)
print(f"cache holds {fp['entries_per_layer']} entries/layer = {fp['bytes']} bytes")

# Greedy answer to a small question. tokens holds the generated ids.
question = [5, 6, 7]
out = session.ask(question, max_new=4, keep_logits=True)
print(f"generated tokens: {out.tokens}")
print(f"prefill {out.prefill_us:.1f}us, {out.decode_us_per_token:.1f}us/token")

# The streaming path should agree with a single full forward pass over
# the same layout (system + frames + question) to float32 tolerance.
oracle = oracle_full_forward(session.weights, SYSTEM, frames, question)
diff = float(np.max(np.abs(out.first_logits - oracle.logits[-1])))
print(f"streaming vs full-context logits: max |diff| = {diff:.3e}")
assert diff <= 1e-4

session.close()
