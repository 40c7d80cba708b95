"""Carrier construction and the bounded carrier memory bank.

Each ingested frame leaves behind exactly one carrier: a single token
whose embedding summarizes the frame (mean of the frame-token rows, or
the last row in the ablation variant) and whose per-layer K/V were
computed while the raw frame tokens were still attendable. The bank
holds at most `capacity` carriers; on overflow it scores candidate
pairs by cosine similarity of carrier embeddings and evicts the older
member of the highest-scoring pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import EVICTION_RULES
from .errors import (
    CapacityError,
    ConfigError,
    DegenerateInputError,
    OrderingError,
    SelectionError,
    ShapeError,
)
from .numerics import cosine_similarity


@dataclass
class FrameTokens:
    """One video frame, already encoded to N embedding rows."""

    frame_index: int
    embeddings: np.ndarray  # (N, d) float32

    def __post_init__(self) -> None:
        if isinstance(self.frame_index, bool) or not isinstance(self.frame_index, (int, np.integer)):
            raise ConfigError(f"frame index must be an integer, got {self.frame_index!r}")
        self.frame_index = int(self.frame_index)
        if self.embeddings.ndim != 2:
            raise ShapeError(f"frame embeddings must be 2-d, got {self.embeddings.shape}")
        if self.frame_index < 0:
            raise OrderingError(f"frame index must be nonnegative, got {self.frame_index}")
        if not np.isfinite(self.embeddings).all():
            raise DegenerateInputError(f"frame {self.frame_index} has non-finite embeddings")


@dataclass
class CarrierRecord:
    """A retained carrier: embedding and baked position.

    Its per-layer K/V live only in the session's `KvCache`, under the
    carrier's frame index as origin.
    """

    frame_index: int
    embedding: np.ndarray  # (d,) float32
    position: int


@dataclass
class EvictionReport:
    frame_evicted: int
    score: float
    rule: str


def build_carrier_embedding(frame_embeddings: np.ndarray, mode: str = "mean") -> np.ndarray:
    """Collapse a frame's N token embeddings into one carrier embedding."""
    if frame_embeddings.ndim != 2 or frame_embeddings.shape[0] == 0:
        raise ShapeError(f"need a nonempty (N, d) frame, got {frame_embeddings.shape}")
    if mode == "mean":
        return frame_embeddings.mean(axis=0, dtype=frame_embeddings.dtype)
    if mode == "last_token":
        return frame_embeddings[-1].copy()
    raise SelectionError(f"unknown carrier mode {mode!r}")


class MemoryBank:
    """Fixed-capacity, arrival-ordered store of carrier records.

    Carriers stay sorted by frame index (strictly increasing).
    """

    def __init__(self, capacity: int, rule: str = "adjacent_pairs"):
        if capacity < 1:
            raise CapacityError(f"capacity must be positive, got {capacity}")
        if rule not in EVICTION_RULES:
            raise SelectionError(f"unknown eviction rule {rule!r}")
        self.capacity = capacity
        self.rule = rule
        self.carriers: list[CarrierRecord] = []

    def __len__(self) -> int:
        return len(self.carriers)

    def frame_indices(self) -> list[int]:
        return [c.frame_index for c in self.carriers]

    def insert(
        self,
        record: CarrierRecord,
        allow_eviction: bool = True,
        allow_overflow: bool = False,
    ) -> EvictionReport | None:
        """Insert a carrier, evicting per the configured rule when full.

        Returns the eviction report, or None when there was room. With
        `allow_eviction=False` (replay runs, where evictions are applied
        up front) a full bank is an error rather than a silent eviction,
        unless `allow_overflow` lets the bank grow past capacity: a replay
        schedule removes a recorded victim at the start of the *next*
        ingest, so the bank legitimately holds capacity+1 records in the
        gap between that insert and the scheduled removal.
        """
        if self.carriers and record.frame_index <= self.carriers[-1].frame_index:
            raise OrderingError(
                f"frame {record.frame_index} arrives after frame {self.carriers[-1].frame_index}"
            )
        if len(self.carriers) < self.capacity or (allow_overflow and not allow_eviction):
            self.carriers.append(record)
            return None
        if not allow_eviction:
            raise CapacityError(
                f"bank full at {self.capacity} and eviction disabled for frame {record.frame_index}"
            )
        victim_idx, score = self._select_victim(record)
        victim = self.carriers.pop(victim_idx)
        self.carriers.append(record)
        return EvictionReport(frame_evicted=victim.frame_index, score=score, rule=self.rule)

    def _select_victim(self, incoming: CarrierRecord) -> tuple[int, float]:
        """Pick the bank slot to evict for the incoming carrier.

        adjacent_pairs: score (bank[i], bank[i+1]) for every i plus
        (bank[last], incoming); the candidate is the older pair member.
        vs_incoming: score (bank[i], incoming) for every i.
        Candidates are scanned oldest-first and ties keep the first
        (oldest) maximum.
        """
        if self.rule == "adjacent_pairs":
            scores = [
                cosine_similarity(self.carriers[i].embedding, self.carriers[i + 1].embedding)
                for i in range(len(self.carriers) - 1)
            ]
            scores.append(cosine_similarity(self.carriers[-1].embedding, incoming.embedding))
        else:
            scores = [
                cosine_similarity(c.embedding, incoming.embedding) for c in self.carriers
            ]
        best = 0
        for i in range(1, len(scores)):
            if scores[i] > scores[best]:
                best = i
        return best, scores[best]

    def remove(self, frame_index: int) -> CarrierRecord:
        """Remove and return the carrier of a specific frame."""
        for i, c in enumerate(self.carriers):
            if c.frame_index == frame_index:
                return self.carriers.pop(i)
        raise SelectionError(f"frame {frame_index} is not in the bank")

    def snapshot(self) -> list[dict]:
        """Cheap inspection copy: frame index, position, embedding per slot."""
        return [
            {
                "frame_index": c.frame_index,
                "position": c.position,
                "embedding": c.embedding.copy(),
            }
            for c in self.carriers
        ]


def oracle_select_victim(
    bank_embeddings: list[np.ndarray], incoming: np.ndarray, rule: str
) -> tuple[int, float]:
    """Reference victim selection by exhaustive pair scan.

    Builds the full candidate pair list, scores every pair, and returns
    (bank slot of the older member of the best pair, score). Kept naive
    on purpose; tests compare `MemoryBank` against it.
    """
    pairs: list[tuple[int, float]] = []
    if rule == "adjacent_pairs":
        for i in range(len(bank_embeddings) - 1):
            pairs.append((i, cosine_similarity(bank_embeddings[i], bank_embeddings[i + 1])))
        pairs.append(
            (len(bank_embeddings) - 1, cosine_similarity(bank_embeddings[-1], incoming))
        )
    elif rule == "vs_incoming":
        for i, emb in enumerate(bank_embeddings):
            pairs.append((i, cosine_similarity(emb, incoming)))
    else:
        raise SelectionError(f"unknown eviction rule {rule!r}")
    best_slot, best_score = pairs[0]
    for slot, score in pairs[1:]:
        if score > best_score:
            best_slot, best_score = slot, score
    return best_slot, best_score
