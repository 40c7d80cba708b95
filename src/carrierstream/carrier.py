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

import math
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
    """Collapse a frame's N token embeddings into one carrier embedding.

    Takes (..., N, d), one frame or a stack of them, and reduces axis -2.
    """
    if frame_embeddings.ndim < 2 or frame_embeddings.shape[-2] == 0:
        raise ShapeError(f"need nonempty (..., N, d) frames, got {frame_embeddings.shape}")
    if mode == "mean":
        return frame_embeddings.mean(axis=-2, dtype=frame_embeddings.dtype)
    if mode == "last_token":
        return frame_embeddings[..., -1, :].copy()
    raise SelectionError(f"unknown carrier mode {mode!r}")


class MemoryBank:
    """Fixed-capacity, arrival-ordered store of carrier records.

    Carriers stay sorted by frame index (strictly increasing). Between
    inserts the bank keeps what the next eviction needs, so an eviction
    does not re-score every slot:

    * adjacent_pairs: `_pair_scores[i]` is the score of the pair
      (carriers[i], carriers[i+1]), or None until an eviction scores it.
      An insert or a removal changes at most two entries, so a
      steady-state eviction makes at most two `cosine_similarity` calls.
    * vs_incoming: every score involves the incoming carrier, so nothing
      carries over; `_rows` holds the embeddings as float64 unit vectors
      for one batched pass per eviction (`_vs_incoming_slot`).

    Every score that picks a victim or is reported comes from the
    `cosine_similarity` call `oracle_select_victim` makes, so victims and
    scores are bit-identical to the oracle's. A record's embedding must
    not change once it is inserted, since its scores and its float64 copy
    are kept.
    """

    def __init__(self, capacity: int, rule: str = "adjacent_pairs"):
        if capacity < 1:
            raise CapacityError(f"capacity must be positive, got {capacity}")
        if rule not in EVICTION_RULES:
            raise SelectionError(f"unknown eviction rule {rule!r}")
        self.capacity = capacity
        self.rule = rule
        self.carriers: list[CarrierRecord] = []
        self._pair_scores: list[float | None] = []
        self._rows: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.carriers)

    def frame_indices(self) -> list[int]:
        return [c.frame_index for c in self.carriers]

    def insert(self, record: CarrierRecord, evict: bool = True) -> EvictionReport | None:
        """Insert a carrier, evicting per the configured rule when full.

        Returns the eviction report, or None when there was room. With
        `evict=False` (replay runs, where evictions are applied up front)
        a full bank overflows instead: a replay schedule removes a
        recorded victim at the start of the *next* ingest, so the bank
        legitimately holds capacity+1 records in the gap between that
        insert and the scheduled removal.
        """
        if self.carriers and record.frame_index <= self.carriers[-1].frame_index:
            raise OrderingError(
                f"frame {record.frame_index} arrives after frame {self.carriers[-1].frame_index}"
            )
        full = len(self.carriers) >= self.capacity
        self._append(record)
        if not (full and evict):
            return None
        try:
            victim_idx, score = self._select_victim()
        except BaseException:
            self._pop(len(self.carriers) - 1)
            raise
        victim = self._pop(victim_idx)
        return EvictionReport(frame_evicted=victim.frame_index, score=score, rule=self.rule)

    def remove(self, frame_index: int) -> CarrierRecord:
        """Remove and return the carrier of a specific frame."""
        for i, c in enumerate(self.carriers):
            if c.frame_index == frame_index:
                return self._pop(i)
        raise SelectionError(f"frame {frame_index} is not in the bank")

    def _append(self, record: CarrierRecord) -> None:
        if self.rule == "adjacent_pairs":
            if self.carriers:
                self._pair_scores.append(None)  # scored lazily, at the next eviction
        else:
            emb = record.embedding
            n = len(self.carriers)
            if self._rows is None:
                if emb.ndim != 1:
                    raise ShapeError(f"carrier embedding must be 1-d, got {emb.shape}")
                self._rows = np.empty((self.capacity + 1, emb.shape[0]))
            if emb.shape != self._rows.shape[1:]:
                raise ShapeError(f"carrier embedding {emb.shape}, bank holds {self._rows.shape[1:]}")
            if n == len(self._rows):  # overflow inserts can outgrow capacity + 1
                self._rows = np.concatenate([self._rows, np.empty_like(self._rows)])
            row = self._rows[n]
            row[:] = emb
            norm = math.sqrt(row @ row)
            # the conditions of the error bound in `_vs_incoming_slot`
            if emb.dtype in (np.float32, np.float64) and len(row) <= 2**14 and 2.0**-50 <= norm <= 2.0**50:
                row /= norm
            else:
                row[:] = np.nan  # forces an exact scan of every slot
        self.carriers.append(record)

    def _pop(self, i: int) -> CarrierRecord:
        record = self.carriers.pop(i)
        n = len(self.carriers)
        if self.rule == "adjacent_pairs":
            if 0 < i < n:  # the slot's two neighbours become a new, unscored pair
                self._pair_scores[i - 1 : i + 1] = [None]
            elif self._pair_scores:
                del self._pair_scores[max(i - 1, 0)]
        else:
            self._rows[i:n] = self._rows[i + 1 : n + 1]
        return record

    def _select_victim(self) -> tuple[int, float]:
        """Pick the slot to evict; the incoming carrier is already the last slot.

        adjacent_pairs: every pair (bank[i], bank[i+1]), the last one being
        (old last, incoming); the candidate is the older pair member.
        vs_incoming: (bank[i], incoming) for every slot before it.
        Candidates are scanned oldest-first and ties keep the first
        (oldest) maximum.
        """
        if self.rule == "vs_incoming":
            return self._vs_incoming_slot()
        scores = self._pair_scores
        for i, s in enumerate(scores):
            if s is None:
                scores[i] = cosine_similarity(self.carriers[i].embedding, self.carriers[i + 1].embedding)
        best = max(scores)
        return scores.index(best), best

    def _vs_incoming_slot(self) -> tuple[int, float]:
        """Batched float64 scores, then `cosine_similarity` on the near-best slots.

        Error bound. For slot k let a = bank[k], b = incoming, c the exact
        a.b / (|a| |b|), d = len(a) and u = 2**-24, the unit roundoff of
        float32, the coarser batched dtype. Without overflow or underflow
        a dot product of length d rounded with unit roundoff u is off by at
        most d u (1 + 2 d u) |a| |b| in any summation order, and a rounded
        norm by (d / 2 + 1) u (1 + d u) of itself. So the score x of
        `cosine_similarity`, which rounds a.b and both norms in the inputs'
        precision and clips, is within (2 d + 2)(1 + 2**-5) u of c, and the
        batched score y, a dot product of float64 unit rows, is within
        (d + 4) 2**-53 of c. With d u <= 2**-10 and every norm in
        [2**-50, 2**50], where float32 neither overflows nor loses more
        than 2**-26 u to underflow, |x - y| <= 3 (d + 2) u = eps. A slot
        whose exact score is the exact maximum thus has a batched score
        within 2 eps of the batched maximum, so re-scoring those slots
        exactly and keeping the first maximum gives the oracle's victim.
        A row outside those conditions is NaN, which makes every slot a
        candidate: each is then scored exactly, and a zero-norm carrier
        raises as it does in the oracle.
        """
        n = len(self.carriers) - 1
        approx = self._rows[:n] @ self._rows[n]
        top = approx.max()
        tol = 6.0 * (self._rows.shape[1] + 2) * 2.0**-24
        near = range(n) if math.isnan(top) else np.flatnonzero(approx >= top - tol)
        incoming = self.carriers[n].embedding
        exact = [cosine_similarity(self.carriers[k].embedding, incoming) for k in near]
        best = max(exact)
        return int(near[exact.index(best)]), best

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
