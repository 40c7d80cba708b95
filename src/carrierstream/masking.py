"""Attention mask construction.

In a streaming step every new token sees every live cache entry: raw
frame rows are never cached (only `CACHEABLE_TAGS` are), so whatever
is in the cache is visible to whatever comes next. A mask therefore
only ever covers the tokens being forwarded, and two builders cover
the whole system:

* `build_semantic_mask` produces the full-sequence mask over a layout
  [system][frame tokens, carrier] x T [text]. Later positions may see
  carriers but never the raw frame tokens of earlier frames, which is
  what makes prefill-then-discard sound.
* `build_streaming_mask` produces the within-segment block for a new
  segment (a frame plus its carrier, or text) appended to a live cache.
  Each of its rows equals the full semantic mask's row restricted to the
  segment, and that row allows every cached entry.

Masks are plain boolean allow-matrices; they are immutable values and
safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

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

    @classmethod
    def from_spans(
        cls,
        system: tuple[int, int],
        frames: Sequence[tuple[tuple[int, int], int]],
        text: tuple[int, int],
    ) -> "SegmentLayout":
        """Build from explicit spans, validating order and disjointness.

        `frames` is a sequence of ((frame_start, frame_stop), carrier_pos).
        """
        cursor = 0
        if system != (cursor, cursor + (system[1] - system[0])) or system[0] != 0:
            raise LayoutError(f"system span must start at 0, got {system}")
        cursor = system[1]
        sizes = []
        for (fstart, fstop), cpos in frames:
            if fstart != cursor or fstop < fstart:
                raise LayoutError(f"frame span ({fstart},{fstop}) overlaps or leaves a gap at {cursor}")
            if cpos != fstop:
                raise LayoutError(f"carrier at {cpos} must directly follow its frame span ending at {fstop}")
            sizes.append(fstop - fstart)
            cursor = cpos + 1
        if text[0] != cursor or text[1] < text[0]:
            raise LayoutError(f"text span {text} overlaps or leaves a gap at {cursor}")
        return cls(system=system[1] - system[0], frame_sizes=tuple(sizes), text=text[1] - text[0])


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

    def validate(self) -> None:
        """Check causality and non-degeneracy; raises LayoutError."""
        if not self.allow.any(axis=1).all():
            raise LayoutError("mask has a query row with no allowed key")
        for i in range(self.allow.shape[0]):
            if self.allow[i, i + 1 :].any():
                raise LayoutError(f"query {i} attends a future key")


def build_semantic_mask(layout: SegmentLayout) -> MaskSpec:
    """Full-sequence mask enforcing one-way flow through carriers.

    Rules, per query segment:
      system   -> causal within system
      frame t  -> system, carriers of frames < t, causal own-frame prefix
      carrier t-> system, carriers of frames < t, all of frame t, itself
      text     -> system, every carrier, causal text prefix

    Raw frame tokens are never visible outside their own frame, so
    anything computed after frame t can rely only on carrier t.
    """
    n = layout.total
    allow = np.zeros((n, n), dtype=bool)
    s = layout.system
    carriers = layout.carrier_positions

    for i in range(s):
        allow[i, : i + 1] = True

    for t in range(layout.num_frames):
        fstart, fstop = layout.frame_span(t)
        cpos = layout.carrier_pos(t)
        earlier = carriers[:t]
        for i in range(fstart, fstop):
            allow[i, :s] = True
            allow[i, earlier] = True
            allow[i, fstart : i + 1] = True
        allow[cpos, :s] = True
        allow[cpos, earlier] = True
        allow[cpos, fstart : cpos + 1] = True

    tstart = layout.text_start
    for i in range(tstart, n):
        allow[i, :s] = True
        allow[i, carriers] = True
        allow[i, tstart : i + 1] = True

    return MaskSpec(allow=allow, layout=layout, tags=tuple(layout.tags()))


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


def remove_carrier_visibility(mask: MaskSpec, frame_ordinal: int) -> MaskSpec:
    """Copy of a full-sequence mask with carrier `frame_ordinal` hidden from
    every other query (its own row keeps itself, so no row degenerates).

    Used by the leakage tests: with the carrier hidden, gradients from any
    later loss back to that frame's raw tokens must vanish identically.
    """
    if mask.layout is None:
        raise LayoutError("carrier removal needs a full-sequence mask with a layout")
    cpos = mask.layout.carrier_pos(frame_ordinal)
    allow = mask.allow.copy()
    keep_self = allow[cpos, cpos]
    allow[:, cpos] = False
    allow[cpos, cpos] = keep_self
    return MaskSpec(allow=allow, layout=mask.layout, tags=mask.tags)
