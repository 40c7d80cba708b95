"""Attention mask construction.

One rule decides visibility everywhere, and it is the rule of what a
cache keeps: a raw frame row is seen only inside its own frame and is
never cached, and every other row (a tag in `CACHEABLE_TAGS`) is cached
and seen by every later row. Two builders state it at two scales:

* `build_semantic_mask` produces the full-sequence mask over a layout
  [system][frame tokens, carrier] x T [text]. Later positions may see
  carriers but never the raw frame tokens of earlier frames, which is
  what makes prefill-then-discard sound. `build_dense_layout` lays a
  batch of streams out in it, with the positions streaming assigns; the
  trainer and the dense oracle both run what it builds.
* `build_streaming_mask` produces the within-segment block for a new
  segment (a frame plus its carrier, or text) appended to a live cache.
  Each of its rows equals the full semantic mask's row restricted to the
  segment, and that row allows every cached entry.

`hide_carrier` is the dense form of deleting a carrier's cache entry:
the leakage tests and the oracle's eviction replay both use it.

Masks are plain boolean allow-matrices; they are immutable values and
safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .carrier import build_carrier_embedding
from .errors import LayoutError

# the tags whose K/V a cache keeps; raw frame rows are used once and dropped
CACHEABLE_TAGS = ("system", "carrier", "text")


@dataclass(frozen=True)
class SegmentLayout:
    """Token layout of a full sequence: system, T frames (each followed by
    one carrier slot), then trailing text. Frame spans may be empty, which
    reduces the layout to carriers-only (the stage-1 training shape)."""

    system: int
    frame_sizes: tuple[int, ...] = ()
    text: int = 0

    def __post_init__(self) -> None:
        if self.system < 0 or self.text < 0 or any(n < 0 for n in self.frame_sizes):
            raise LayoutError("span lengths must be nonnegative")

    @property
    def num_frames(self) -> int:
        return len(self.frame_sizes)

    @property
    def total(self) -> int:
        return self.system + sum(n + 1 for n in self.frame_sizes) + self.text

    def frame_span(self, t: int) -> tuple[int, int]:
        """Half-open index range of frame t's tokens (t is 0-based)."""
        start = self.system + sum(n + 1 for n in self.frame_sizes[:t])
        return start, start + self.frame_sizes[t]

    def carrier_pos(self, t: int) -> int:
        return self.frame_span(t)[1]

    @property
    def carrier_positions(self) -> list[int]:
        return [self.carrier_pos(t) for t in range(self.num_frames)]

    @property
    def text_start(self) -> int:
        return self.total - self.text

    def tags(self) -> list[str]:
        """Per-position segment tag."""
        out = ["system"] * self.system
        for n in self.frame_sizes:
            out.extend(["frame"] * n)
            out.append("carrier")
        out.extend(["text"] * self.text)
        return out

    def frame_of(self) -> list[int]:
        """Per-position frame ordinal (0-based); -1 outside frame/carrier spans."""
        out = [-1] * self.system
        for t, n in enumerate(self.frame_sizes):
            out.extend([t] * (n + 1))
        out.extend([-1] * self.text)
        return out


@dataclass(frozen=True)
class MaskSpec:
    """Square boolean allow-matrix over a run of tokens, with their tags.

    Full-sequence masks also carry their `layout`.
    """

    allow: np.ndarray
    layout: SegmentLayout | None = None
    tags: tuple[str, ...] = ()

    @property
    def n_queries(self) -> int:
        return self.allow.shape[0]


def build_semantic_mask(layout: SegmentLayout) -> MaskSpec:
    """Full-sequence mask: the streaming rule, stated once over the layout.

    Row i sees row j <= i when j's tag is in `CACHEABLE_TAGS`, or when
    both rows belong to the same frame. Per query segment that reads:
      system   -> causal within system
      frame t  -> system, carriers of frames < t, causal own-frame prefix
      carrier t-> system, carriers of frames < t, all of frame t, itself
      text     -> system, every carrier, causal text prefix

    Raw frame tokens are never visible outside their own frame, so
    anything computed after frame t can rely only on carrier t.
    """
    tags = layout.tags()
    frame_of = np.array(layout.frame_of())
    seen_later = np.isin(tags, CACHEABLE_TAGS) | (frame_of[:, None] == frame_of)
    allow = np.tri(layout.total, dtype=bool) & seen_later
    return MaskSpec(allow=allow, layout=layout, tags=tuple(tags))


def build_dense_layout(
    system: np.ndarray, frames: np.ndarray, text: np.ndarray, carrier_mode: str, kv_mode: str
) -> tuple[np.ndarray, np.ndarray, MaskSpec]:
    """Lay a batch of streams out as the dense sequences streaming mirrors.

    `system` is (s, d) and shared, `frames` (b, T, N, d), `text` (b, L, d).
    Returns the (b, S, d) embeddings, the (S,) positions the engine
    assigns, and the semantic mask with its layout and tags.
    `kv_mode="inherited"` gives [system][frame rows, carrier] x T [text].
    With "embedding_only" the raw rows are never forwarded, so every frame
    span is empty, but its N positions stay reserved: carrier t sits at
    s + t(N+1) + N, as it does when streamed (and in stage-1 training).
    """
    b, t, n, d = frames.shape
    s = system.shape[0]
    shown = n if kv_mode == "inherited" else 0
    layout = SegmentLayout(system=s, frame_sizes=(shown,) * t, text=text.shape[1])
    embeds = np.empty((b, layout.total, d), dtype=np.result_type(system, frames, text))
    embeds[:, :s] = system
    blocks = embeds[:, s : layout.text_start].reshape(b, t, shown + 1, d)  # a view into embeds
    blocks[:, :, :shown] = frames[:, :, :shown]
    blocks[:, :, shown] = build_carrier_embedding(frames, carrier_mode)
    embeds[:, layout.text_start :] = text
    positions = np.arange(layout.total, dtype=np.int64)
    if shown == 0:  # a carrier follows its own and each earlier frame's N reserved rows
        positions[s:] += n * np.minimum(np.arange(1, layout.total - s + 1), t)
    return embeds, positions, build_semantic_mask(layout)


def build_streaming_mask(kind: str, count: int) -> MaskSpec:
    """Within-segment mask for appending one new segment to a live cache.

    kind:
      "frame"   -> `count` frame tokens followed by one carrier
      "carrier" -> a lone carrier token (the no-KV-inheritance variant)
      "text"    -> `count` text tokens
      "system"  -> `count` system tokens (causal, same pattern as text)

    Returns the (m, m) block over the new tokens only; the cache is always
    visible and is not part of the mask. Frame, text and system tokens are
    causal, and the carrier, placed last, sees its whole frame.
    """
    if kind == "frame":
        if count < 1:
            raise LayoutError("a frame segment needs at least one token")
        tags = ("frame",) * count + ("carrier",)
    elif kind == "carrier":
        if count != 1:
            raise LayoutError("a carrier segment is exactly one token")
        tags = ("carrier",)
    elif kind in ("text", "system"):
        if count < 1:
            raise LayoutError(f"a {kind} segment needs at least one token")
        tags = (kind,) * count
    else:
        raise LayoutError(f"unknown segment kind {kind!r}")
    return MaskSpec(allow=np.tri(len(tags), dtype=bool), tags=tags)


def hide_carrier(allow: np.ndarray, layout: SegmentLayout, t: int, after: int) -> None:
    """Hide carrier t, in place, from every row after carrier `after`: the
    dense form of deleting carrier t's cache entry once carrier `after`
    is cached (rows up to and including that carrier still see it)."""
    allow[layout.carrier_pos(after) + 1 :, layout.carrier_pos(t)] = False


def remove_carrier_visibility(mask: MaskSpec, frame_ordinal: int) -> MaskSpec:
    """Copy of a full-sequence mask with carrier `frame_ordinal` hidden from
    every later query (its own row keeps itself, so no row degenerates).

    Used by the leakage tests: with the carrier hidden, gradients from any
    later loss back to that frame's raw tokens must vanish identically.
    """
    if mask.layout is None:
        raise LayoutError("carrier removal needs a full-sequence mask with a layout")
    allow = mask.allow.copy()
    hide_carrier(allow, mask.layout, frame_ordinal, frame_ordinal)
    return MaskSpec(allow=allow, layout=mask.layout, tags=mask.tags)
