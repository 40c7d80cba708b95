"""Streaming session: ingest frames one at a time, ask questions any time.

The cost model is the whole point. Each `ingest_frame` runs the frame's
N tokens plus one carrier through the model against the current cache,
then throws the frame-token K/V away and keeps only the carrier. With a
bank capacity of M, cache size and per-ingest work stop growing once M
carriers are resident, no matter how long the stream runs.

`oracle_full_forward` is the reference implementation: the same layout
evaluated in one batched pass under the full semantic mask. Streaming
and oracle agree on question logits to float32 accumulation error.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .carrier import CarrierRecord, FrameTokens, MemoryBank, build_carrier_embedding
from .config import ModelConfig
from .errors import (
    CapacityError,
    ConfigError,
    DegenerateInputError,
    OracleError,
    OrderingError,
    ShapeError,
    StateError,
)
from .masking import SegmentLayout, build_semantic_mask, build_streaming_mask
from .model import KvCache, Weights, forward_step


@dataclass
class IngestReport:
    frame_index: int
    bank_size: int
    evicted: int | None
    eviction_score: float | None
    kv_bytes: int
    latency_us: float
    flops: int = 0


@dataclass
class GenerationOutput:
    tokens: list[int]
    step_logits: list[np.ndarray] | None
    prefill_us: float
    decode_us_per_token: float
    attention_rows: list | None = None

    @property
    def first_logits(self) -> np.ndarray:
        if not self.step_logits:
            raise StateError("logits were not retained; pass keep_logits=True")
        return self.step_logits[0]


@dataclass(frozen=True)
class EvictionReplay:
    """Forced-eviction schedule: which carriers to drop, and when.

    `before_frame[t]` lists carrier frame indices evicted at the start of
    ingest t, before that frame's forward pass; `before_ask` lists those
    evicted when the first question arrives. While a replay is attached,
    score-based eviction is disabled, so bank contents are fully
    determined by the schedule.
    """

    before_frame: dict[int, tuple[int, ...]] = field(default_factory=dict)
    before_ask: tuple[int, ...] = ()


def _check_token_ids(ids: list[int], vocab_size: int, what: str) -> None:
    bad = [
        t for t in ids
        if isinstance(t, bool) or not isinstance(t, (int, np.integer)) or not 0 <= t < vocab_size
    ]
    if bad:
        raise ConfigError(f"{what} token ids {bad} outside [0, {vocab_size})")


class StreamSession:
    """Live streaming state: weights, KV cache, carrier bank, trace."""

    def __init__(
        self,
        config: ModelConfig,
        weights: Weights,
        system_tokens: list[int] | None = None,
        replay: EvictionReplay | None = None,
        capture=None,
        flops=None,
        trace_path: str | None = None,
    ):
        if not weights.config.compatible_with(config):
            raise ConfigError("weights were built for a different model shape")
        _check_token_ids(system_tokens or [], config.vocab_size, "system")
        self.config = config
        self.weights = weights
        self.cache = KvCache(config)
        self.bank = MemoryBank(config.memory_capacity, config.eviction_rule)
        self.replay = replay
        self.capture = capture
        self.flops = flops
        self.trace: list[dict] = []
        self._trace_fh = None
        self._open = True
        self._next_position = 0
        self._last_frame_index = -1
        self._pending_frames: list[FrameTokens] = []  # memory-disabled mode only
        self._materialized = False
        self._ask_replay_done = False

        self.system_tokens = list(system_tokens or [])
        if self.system_tokens:
            emb = weights.tok_emb[np.asarray(self.system_tokens)]
            self._forward_segment(emb, "system", len(self.system_tokens))
        if trace_path:  # opened after the system prefill, so a failed prefill leaks no file
            self._trace_fh = open(trace_path, "w")
        self._emit({"event": "open", "system_tokens": len(self.system_tokens)})

    # -- internals ----------------------------------------------------------

    def _emit(self, event: dict) -> None:
        self.trace.append(event)
        if self._trace_fh is not None:
            self._trace_fh.write(json.dumps(event) + "\n")
            self._trace_fh.flush()

    def _require_open(self) -> None:
        if not self._open:
            raise StateError("session is closed")

    def _flops_total(self) -> int:
        return 0 if self.flops is None else self.flops.total

    def _forward_segment(
        self,
        embeddings: np.ndarray,
        kind: str,
        count: int,
        origin: int = -1,
    ) -> np.ndarray:
        """Forward one segment against the cache and retain its persistent part."""
        spec = build_streaming_mask(kind, count)
        m = spec.n_queries
        positions = np.arange(self._next_position, self._next_position + m, dtype=np.int64)
        logits = forward_step(
            self.weights,
            self.cache,
            np.asarray(embeddings, dtype=np.float32),
            positions,
            spec.allow,
            new_tags=list(spec.tags),
            new_origins=[origin] * m,
            capture=self.capture,
            flops=self.flops,
        )
        self._next_position += m
        return logits

    def _force_evict(self, frame_index: int, at: str) -> None:
        self.bank.remove(frame_index)
        removed = self.cache.delete_origin(frame_index)
        if removed == 0:
            raise StateError(f"carrier of frame {frame_index} missing from cache")
        self._emit({"event": "forced_evict", "frame": frame_index, "at": at})

    # -- public API ----------------------------------------------------------

    def ingest_frame(self, frame: FrameTokens) -> IngestReport:
        """Prefill one frame, retain its carrier, evict on overflow."""
        self._require_open()
        if self._materialized:
            raise StateError("memory-disabled session already answered; no more frames")
        n, d = self.config.tokens_per_frame, self.config.d_model
        if frame.embeddings.shape != (n, d):
            raise ShapeError(f"frame {frame.embeddings.shape}, expected ({n}, {d})")
        if frame.frame_index <= self._last_frame_index:
            raise OrderingError(
                f"frame {frame.frame_index} arrives after frame {self._last_frame_index}"
            )
        t0 = time.perf_counter_ns()
        f0 = self._flops_total()
        carrier = self._carrier_of(frame)

        evicted: int | None = None
        score: float | None = None
        if not self.config.memory_enabled:
            self._pending_frames.append(frame)
        else:
            if self.replay is not None:
                for j in self.replay.before_frame.get(frame.frame_index, ()):
                    self._force_evict(j, at=f"frame:{frame.frame_index}")
            record = self.prefill_frame(frame, carrier)
            outcome = self.bank.insert(
                record,
                allow_eviction=self.replay is None,
                allow_overflow=self.replay is not None,
            )
            if outcome is not None:
                evicted, score = outcome.frame_evicted, outcome.score
                self.cache.delete_origin(evicted)

        self._last_frame_index = frame.frame_index
        report = IngestReport(
            frame_index=frame.frame_index,
            bank_size=len(self.bank),
            evicted=evicted,
            eviction_score=score,
            kv_bytes=self.kv_footprint()["bytes"],
            latency_us=(time.perf_counter_ns() - t0) / 1000.0,
            flops=self._flops_total() - f0,
        )
        self._emit(
            {
                "event": "ingest",
                "frame": frame.frame_index,
                "bank_size": report.bank_size,
                "evicted": evicted,
                "score": score,
                "kv_bytes": report.kv_bytes,
                "latency_us": report.latency_us,
            }
        )
        return report

    def _carrier_of(self, frame: FrameTokens) -> np.ndarray:
        """The frame's carrier embedding, checked before any state changes.

        A zero-norm carrier has no cosine similarity, so the bank could
        never score it for eviction.
        """
        carrier = build_carrier_embedding(
            np.asarray(frame.embeddings, dtype=np.float32), self.config.carrier_mode
        )
        if float(np.linalg.norm(carrier)) == 0.0:  # the norm cosine_similarity computes
            raise DegenerateInputError(f"frame {frame.frame_index} has a zero-norm carrier")
        return carrier

    def prefill_frame(self, frame: FrameTokens, carrier: np.ndarray) -> CarrierRecord:
        """Forward frame tokens + carrier; keep only the carrier's K/V.

        In the embedding-only variant the raw tokens are never forwarded:
        the carrier embedding alone attends the cache. Either way the
        frame's N positions stay reserved so position layout is identical
        across variants. `carrier` is the frame's carrier embedding from
        `_carrier_of`.
        """
        emb = np.asarray(frame.embeddings, dtype=np.float32)
        carrier_position = self._next_position + self.config.tokens_per_frame

        if self.config.carrier_kv_mode == "inherited":
            block = np.concatenate([emb, carrier[None, :]], axis=0)
            self._forward_segment(block, "frame", self.config.tokens_per_frame, origin=frame.frame_index)
        else:
            self._next_position = carrier_position  # raw token positions stay reserved
            self._forward_segment(carrier[None, :], "carrier", 1, origin=frame.frame_index)

        return CarrierRecord(
            frame_index=frame.frame_index, embedding=carrier.copy(), position=carrier_position
        )

    def _materialize_pending(self) -> None:
        """Memory-disabled path: evenly sample min(M, T) buffered frames and
        prefill just those, in order, when the first question arrives."""
        t = len(self._pending_frames)
        if t == 0:
            self._materialized = True
            return
        k = min(self.config.memory_capacity, t)
        idx = np.round(np.linspace(0, t - 1, k)).astype(int)
        if len(set(idx.tolist())) != k:
            raise StateError("even sampling produced duplicate frame slots")
        for i in idx:
            frame = self._pending_frames[int(i)]
            record = self.prefill_frame(frame, self._carrier_of(frame))
            self.bank.insert(record)
        self._emit({"event": "materialize", "sampled": [int(self._pending_frames[int(i)].frame_index) for i in idx]})
        self._pending_frames = []
        self._materialized = True

    def ask(self, question_ids: list[int], max_new: int = 0, keep_logits: bool = False) -> GenerationOutput:
        """Prefill a text question against the live cache and decode greedily.

        Generated tokens are forwarded and retained as text, so follow-up
        questions see the full dialogue so far.
        """
        self._require_open()
        if max_new < 0:
            raise ConfigError(f"max_new must be nonnegative, got {max_new}")
        if len(question_ids) == 0:
            raise ShapeError("question must contain at least one token")
        _check_token_ids(question_ids, self.config.vocab_size, "question")

        if not self.config.memory_enabled and not self._materialized:
            self._materialize_pending()
        if self.replay is not None and not self._ask_replay_done:
            for j in self.replay.before_ask:
                self._force_evict(j, at="ask")
            self._ask_replay_done = True

        capture_start = len(self.capture.rows) if self.capture is not None else 0
        t0 = time.perf_counter_ns()
        emb = self.weights.tok_emb[np.asarray(question_ids)]
        logits = self._forward_segment(emb, "text", len(question_ids))
        prefill_us = (time.perf_counter_ns() - t0) / 1000.0

        tokens: list[int] = []
        step_logits: list[np.ndarray] | None = [] if keep_logits else None
        row = logits[-1]
        t1 = time.perf_counter_ns()
        for _ in range(max_new):
            tid = int(np.argmax(row))
            tokens.append(tid)
            if step_logits is not None:
                step_logits.append(row.copy())
            out = self._forward_segment(self.weights.tok_emb[np.asarray([tid])], "text", 1)
            row = out[-1]
            if tid == self.config.eos_token_id:
                break
        decode_us = (time.perf_counter_ns() - t1) / 1000.0

        output = GenerationOutput(
            tokens=tokens,
            step_logits=step_logits,
            prefill_us=prefill_us,
            decode_us_per_token=decode_us / len(tokens) if tokens else 0.0,
            attention_rows=(
                self.capture.rows[capture_start:] if self.capture is not None else None
            ),
        )
        self._emit(
            {
                "event": "ask",
                "question_tokens": len(question_ids),
                "generated": tokens,
                "prefill_us": prefill_us,
                "decode_us_per_token": output.decode_us_per_token,
                "kv_bytes": self.kv_footprint()["bytes"],
            }
        )
        return output

    def kv_footprint(self, include_text: bool = True) -> dict:
        """Cache size: entries per layer and bytes across all layers.

        bytes = layers * entries * 2 (K and V) * d_model * 4 (float32).
        """
        if include_text:
            entries = len(self.cache)
        else:
            entries = sum(1 for t in self.cache.tags if t != "text")
        d = self.config.d_model
        return {
            "entries_per_layer": entries,
            "bytes": self.config.layers * entries * 2 * d * 4,
        }

    def reset_dialogue(self) -> int:
        """Drop all text entries (question/answer history); carriers stay.

        The position counter rewinds to just past the retained entries,
        so dialogue turns never exhaust `max_positions` and a question
        asked after a reset reproduces a never-asked session exactly.
        """
        self._require_open()
        removed = self.cache.delete_tag("text")
        self._next_position = self.cache.max_position + 1
        self._emit({"event": "reset_dialogue", "removed": removed})
        return removed

    def close(self) -> None:
        self._open = False
        if self._trace_fh is not None:
            self._trace_fh.close()
            self._trace_fh = None


def derive_replay(session: StreamSession) -> EvictionReplay:
    """Turn a finished session's eviction history into a replay schedule.

    The history is the session trace: each `ingest` event names its
    frame and the carrier that ingest evicted. Each recorded eviction
    happened at the end of some ingest t; replay applies it at the start
    of the next ingest instead (or before the ask, for the final frame).
    Every forward pass still sees exactly the bank contents it saw in the
    recorded run, so an unperturbed replay is bit-identical while making
    evictions independent of scores.
    """
    ingests = [e for e in session.trace if e["event"] == "ingest"]
    before_frame: dict[int, list[int]] = {}
    before_ask: list[int] = []
    for event, nxt in zip(ingests, ingests[1:] + [None]):
        if event["evicted"] is None:
            continue
        if nxt is None:
            before_ask.append(event["evicted"])
        else:
            before_frame.setdefault(nxt["frame"], []).append(event["evicted"])
    return EvictionReplay(
        before_frame={k: tuple(v) for k, v in before_frame.items()},
        before_ask=tuple(before_ask),
    )


@dataclass
class OracleResult:
    logits: np.ndarray  # (len(question), vocab) rows at the question positions


def oracle_full_forward(
    weights: Weights,
    system_tokens: list[int],
    frames: list[FrameTokens],
    question_ids: list[int],
    replay: EvictionReplay | None = None,
    capture=None,
) -> OracleResult:
    """Reference single-pass evaluation of a whole stream.

    Materializes [system][frame tokens, carrier] x T [question] with the
    positions the streaming engine would assign, applies the full
    semantic mask (with evicted carriers hidden according to `replay`),
    and runs one batched forward. Only the no-eviction regime (or an
    explicit replay schedule) is supported, and only the KV-inheriting
    carrier variant; anything else has no exact dense equivalent.
    """
    config = weights.config
    if config.carrier_kv_mode != "inherited" or not config.memory_enabled:
        raise OracleError("the dense oracle covers only the default carrier variant")
    if replay is None and len(frames) > config.memory_capacity:
        raise OracleError(
            f"{len(frames)} frames exceed capacity {config.memory_capacity}; supply a replay schedule"
        )
    _check_token_ids(system_tokens, config.vocab_size, "system")
    _check_token_ids(question_ids, config.vocab_size, "question")

    n, d = config.tokens_per_frame, config.d_model
    rows = [weights.tok_emb[np.asarray(system_tokens)]] if system_tokens else []
    for frame in frames:
        emb = np.asarray(frame.embeddings, dtype=np.float32)
        if emb.shape != (n, d):
            raise ShapeError(f"frame {emb.shape}, expected ({n}, {d})")
        carrier = build_carrier_embedding(emb, config.carrier_mode)
        rows.append(np.concatenate([emb, carrier[None, :]], axis=0))
    rows.append(weights.tok_emb[np.asarray(question_ids)])
    embeddings = np.concatenate(rows, axis=0)

    layout = SegmentLayout(
        system=len(system_tokens),
        frame_sizes=(n,) * len(frames),
        text=len(question_ids),
    )
    spec = build_semantic_mask(layout)
    allow = spec.allow
    if replay is not None:
        allow = allow.copy()
        ordinal = {f.frame_index: t for t, f in enumerate(frames)}
        frame_of = np.array(layout.frame_of())
        text_rows = np.arange(layout.text_start, layout.total)
        for evicted, evict_ord in _evict_ordinals(replay, frames, ordinal).items():
            col = layout.carrier_pos(ordinal[evicted])
            if evict_ord <= len(frames) - 1:
                late = frame_of >= evict_ord
                allow[late, col] = False
            allow[text_rows, col] = False

    # a fresh cache holds nothing, so the full mask is exactly the new block
    logits = forward_step(
        weights,
        KvCache(config),
        embeddings,
        np.arange(layout.total, dtype=np.int64),
        allow,
        new_tags=list(spec.tags),
        capture=capture,
    )
    return OracleResult(logits=logits[layout.text_start :])


def _evict_ordinals(
    replay: EvictionReplay, frames: list[FrameTokens], ordinal: dict[int, int]
) -> dict[int, int]:
    """Map evicted frame index -> ordinal of the ingest it is evicted before
    (len(frames) means evicted just before the ask)."""
    out: dict[int, int] = {}
    for during, victims in replay.before_frame.items():
        if during not in ordinal:
            raise OracleError(f"replay references unknown frame {during}")
        for j in victims:
            if j not in ordinal or ordinal[j] >= ordinal[during]:
                raise OracleError(f"replay evicts frame {j} before it is ingested")
            out[j] = ordinal[during]
    for j in replay.before_ask:
        if j not in ordinal:
            raise OracleError(f"replay references unknown frame {j}")
        out[j] = len(frames)
    return out
