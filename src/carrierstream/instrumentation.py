"""Observation tools: attention capture, flop accounting, serving bench.

Everything here is strictly read-only with respect to the model: capture
copies attention rows as they are computed and the flop counter applies
a closed-form cost model, so enabling either leaves every logit
bit-identical.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field

import numpy as np

from .config import ModelConfig
from .errors import SelectionError, StateError
from .frames_io import make_random_frames
from .model import init_model

GENERATED_QUERY_TAG = "text"


@dataclass(frozen=True)
class CaptureFilter:
    """Which attention rows to keep. None means 'all'."""

    layers: tuple[int, ...] | None = None
    heads: tuple[int, ...] | None = None
    query_tags: tuple[str, ...] | None = None


@dataclass
class AttentionRow:
    layer: int
    head: int
    query_position: int
    query_tag: str
    scores: np.ndarray  # (n_keys,) float32 copy, sums to 1
    key_positions: np.ndarray  # (n_keys,) int64
    key_tags: tuple[str, ...]


class AttentionCapture:
    """Observer handed to the forward pass; collects per-head attention rows."""

    def __init__(self, filter: CaptureFilter | None = None):
        self.filter = filter or CaptureFilter()
        self.rows: list[AttentionRow] = []

    def observe(
        self,
        layer: int,
        probs: np.ndarray,  # (heads, m, n)
        key_positions: np.ndarray,
        key_tags: tuple[str, ...],
        query_positions: np.ndarray,
        query_tags: tuple[str, ...],
    ) -> None:
        f = self.filter
        if f.layers is not None and layer not in f.layers:
            return
        heads, m, _ = probs.shape
        key_positions = np.asarray(key_positions, dtype=np.int64)
        for head in range(heads):
            if f.heads is not None and head not in f.heads:
                continue
            for qi in range(m):
                if f.query_tags is not None and query_tags[qi] not in f.query_tags:
                    continue
                self.rows.append(
                    AttentionRow(
                        layer=layer,
                        head=head,
                        query_position=int(query_positions[qi]),
                        query_tag=query_tags[qi],
                        scores=probs[head, qi].copy(),
                        key_positions=key_positions.copy(),
                        key_tags=key_tags,
                    )
                )


@dataclass
class AttentionTrace:
    rows: list[AttentionRow]

    def layers(self) -> list[int]:
        return sorted({r.layer for r in self.rows})


def record_attention(source) -> AttentionTrace:
    """Collect the attention rows captured on a session or capture object."""
    capture = source if isinstance(source, AttentionCapture) else getattr(source, "capture", None)
    if capture is None:
        raise StateError("attention capture was not enabled before the forward pass")
    return AttentionTrace(rows=list(capture.rows))


def averaged_generated_attention(
    trace: AttentionTrace, per_head: bool = False
) -> dict:
    """Mean attention mass per key, over generated-text queries.

    Rows within a layer can have different key sets (the cache grows
    during decoding), so rows are aligned by global key position and
    missing keys contribute zero. Each returned score vector still sums
    to 1 because every source row does. Keys are returned sorted by
    position with their segment tags.

    Returns {layer: {...}} or, with per_head=True, {(layer, head): {...}}
    where the value dict has "key_positions", "key_tags", "scores".
    """
    rows = [r for r in trace.rows if r.query_tag == GENERATED_QUERY_TAG]
    if not rows:
        raise SelectionError("trace contains no generated-token attention rows")

    groups: dict = {}
    for r in rows:
        key = (r.layer, r.head) if per_head else r.layer
        groups.setdefault(key, []).append(r)

    out: dict = {}
    for key, members in groups.items():
        pos_to_tag: dict[int, str] = {}
        for r in members:
            for p, t in zip(r.key_positions.tolist(), r.key_tags):
                pos_to_tag[p] = t
        positions = np.array(sorted(pos_to_tag), dtype=np.int64)
        index = {int(p): i for i, p in enumerate(positions)}
        acc = np.zeros(len(positions), dtype=np.float64)
        for r in members:
            for p, s in zip(r.key_positions.tolist(), r.scores):
                acc[index[int(p)]] += float(s)
        acc /= len(members)
        out[key] = {
            "key_positions": positions,
            "key_tags": tuple(pos_to_tag[int(p)] for p in positions),
            "scores": acc,
        }
    return out


def write_attention_csv(path: str, trace: AttentionTrace, per_head: bool = False) -> int:
    """Export averaged generated-token attention as CSV.

    Columns: layer, head (head index or "mean"), key_pos, segment, score.
    Returns the number of data rows written.
    """
    averaged = averaged_generated_attention(trace, per_head=per_head)
    written = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "head", "key_pos", "segment", "score"])
        for key in sorted(averaged):
            layer, head = key if per_head else (key, "mean")
            entry = averaged[key]
            for p, t, s in zip(entry["key_positions"], entry["key_tags"], entry["scores"]):
                writer.writerow([layer, head, int(p), t, f"{float(s):.8e}"])
                written += 1
    return written


# ---------------------------------------------------------------------------
# flop accounting
# ---------------------------------------------------------------------------


def step_flops(config: ModelConfig, m_new: int, n_keys: int) -> int:
    """Closed-form flop model for one forward step.

    m_new tokens attend n_keys total keys (cache plus themselves). Per
    layer, with d = d_model, f = ff_dim, h = heads, r = adapter_rank:

      layer norms        2 * 8*m*d
      q/k/v/o projections 4 * 2*m*d*d  (+ 4 * 4*m*d*r with adapters)
      scores q.k^T       2*m*n*d
      softmax            4*h*m*n
      probs.v            2*m*n*d
      ffn                2*m*d*f * 2 + 10*m*f   (10 flops/element for gelu)
      residual adds      2*m*d

    plus the unembedding 2*m*d*vocab. The constants are a convention;
    what matters downstream is that the count is a pure function of
    (m_new, n_keys), so it is identical for any two steps of equal shape.
    """
    d, f, h, r = config.d_model, config.ff_dim, config.heads, config.adapter_rank
    m, n = m_new, n_keys
    per_layer = (
        2 * 8 * m * d
        + 4 * 2 * m * d * d
        + (4 * 4 * m * d * r if r > 0 else 0)
        + 2 * m * n * d
        + 4 * h * m * n
        + 2 * m * n * d
        + 2 * (2 * m * d * f)
        + 10 * m * f
        + 2 * m * d
    )
    return config.layers * per_layer + 2 * m * d * config.vocab_size


class FlopCounter:
    """Accumulates the cost model over forward steps."""

    def __init__(self, config: ModelConfig):
        self.config = config
        self.total = 0
        self.steps: list[tuple[int, int, int]] = []  # (m_new, n_keys, flops)

    def add_step(self, m_new: int, n_keys: int) -> None:
        cost = step_flops(self.config, m_new, n_keys)
        self.total += cost
        self.steps.append((m_new, n_keys, cost))


# ---------------------------------------------------------------------------
# serving benchmark
# ---------------------------------------------------------------------------


@dataclass
class BenchSchedule:
    """What a benchmark run does: how many frames, where questions land."""

    frames: int = 200
    question_points: tuple[int, ...] = ()
    question_ids: tuple[int, ...] = (0,)
    max_new: int = 4


@dataclass
class BenchReport:
    config: ModelConfig
    ingest_us: list[float] = field(default_factory=list)
    ingest_flops: list[int] = field(default_factory=list)
    ask_us: list[float] = field(default_factory=list)
    kv_bytes: list[int] = field(default_factory=list)
    flops_by_phase: dict = field(default_factory=dict)

    def summary(self) -> dict:
        ingest = np.array(self.ingest_us) if self.ingest_us else np.zeros(1)
        return {
            "frames": len(self.ingest_us),
            "m": self.config.memory_capacity,
            "ingest_us": {
                "p50": float(np.percentile(ingest, 50)),
                "p90": float(np.percentile(ingest, 90)),
            },
            "ask_us": float(np.mean(self.ask_us)) if self.ask_us else None,
            "serving_fps_proxy": float(1e6 / np.mean(ingest)) if self.ingest_us else None,
            "kv_bytes_final": self.kv_bytes[-1] if self.kv_bytes else 0,
            "flops_per_ingest": self.ingest_flops[-1] if self.ingest_flops else 0,
            "flops_by_phase": dict(self.flops_by_phase),
        }


def bench_serving(config: ModelConfig, schedule: BenchSchedule, seed: int) -> BenchReport:
    """Stream synthetic frames through a fresh session and time each phase."""
    from .engine import StreamSession  # local import; engine pulls no bench code

    weights = init_model(config, seed)
    frames = make_random_frames(schedule.frames, config.tokens_per_frame, config.d_model, seed + 1)
    counter = FlopCounter(config)
    session = StreamSession(config, weights, system_tokens=[0], flops=counter)
    report = BenchReport(config=config)
    ask_flops = 0

    question_at = set(schedule.question_points)
    for i, frame in enumerate(frames):
        r = session.ingest_frame(frame)
        report.ingest_us.append(r.latency_us)
        report.ingest_flops.append(r.flops)
        report.kv_bytes.append(r.kv_bytes)
        if i in question_at:
            before = counter.total
            t0 = time.perf_counter_ns()
            session.ask(list(schedule.question_ids), max_new=schedule.max_new)
            report.ask_us.append((time.perf_counter_ns() - t0) / 1000.0)
            ask_flops += counter.total - before

    report.flops_by_phase = {
        "ingest": int(sum(report.ingest_flops)),
        "ask": int(ask_flops),
    }
    session.close()
    return report


def write_bench_json(path: str, summary: dict) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
