"""Frame file IO and synthetic frame generation.

Format: magic "VSCN", version u32 LE, then T, N, d as u32 LE, then the
payload as T*N*d float32 LE values (frame-major, row-major within a
frame). Frames load back with indices 0..T-1.
"""

from __future__ import annotations

import struct
from typing import BinaryIO

import numpy as np

from .carrier import FrameTokens
from .config import ModelConfig
from .errors import ConfigError, FormatError, PayloadLengthError, ShapeError

FRAMES_MAGIC = b"VSCN"
FRAMES_VERSION = 1


def save_frames(path: str, frames: list[FrameTokens]) -> None:
    if not frames:
        raise ShapeError("refusing to write an empty frame file")
    n, d = frames[0].embeddings.shape
    for f in frames:
        if f.embeddings.shape != (n, d):
            raise ShapeError(
                f"frame {f.frame_index} has shape {f.embeddings.shape}, expected ({n}, {d})"
            )
    with open(path, "wb") as fh:
        fh.write(FRAMES_MAGIC)
        fh.write(struct.pack("<IIII", FRAMES_VERSION, len(frames), n, d))
        for f in frames:
            fh.write(np.ascontiguousarray(f.embeddings, dtype="<f4").tobytes())


def _read_exact(fh: BinaryIO, count: int, what: str) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise PayloadLengthError(f"truncated frame file: {what} needs {count} bytes, found {len(data)}")
    return data


def load_frames(path: str, config: ModelConfig | None = None) -> list[FrameTokens]:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != FRAMES_MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {FRAMES_MAGIC!r}")
        version, t, n, d = struct.unpack("<IIII", _read_exact(fh, 16, "header"))
        if version != FRAMES_VERSION:
            raise FormatError(f"unsupported frame file version {version}")
        if config is not None:
            if n != config.tokens_per_frame or d != config.d_model:
                raise ConfigError(
                    f"frame file is ({n}, {d}) per frame, model wants "
                    f"({config.tokens_per_frame}, {config.d_model})"
                )
        payload = _read_exact(fh, 4 * t * n * d, "payload")
        trailing = fh.read(1)
        if trailing:
            raise PayloadLengthError("frame file has trailing bytes past the declared payload")
    data = np.frombuffer(payload, dtype="<f4").reshape(t, n, d)
    return [FrameTokens(frame_index=i, embeddings=data[i].copy()) for i in range(t)]


def make_random_frames(
    count: int, tokens_per_frame: int, d_model: int, seed: int
) -> list[FrameTokens]:
    """Synthetic frames with entries on the token-embedding scale U(-1/sqrt d, 1/sqrt d).

    The generator fills values in order, so a chunk of frames drawn in
    one call holds the same values as drawing its frames one by one.
    Each frame is a view into its chunk; a chunk holds about
    `_DRAW_CHUNK_VALUES` values, which bounds the float64 draw.
    """
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(d_model)
    per_chunk = max(1, _DRAW_CHUNK_VALUES // (tokens_per_frame * d_model))
    frames: list[FrameTokens] = []
    for start in range(0, count, per_chunk):
        size = (min(per_chunk, count - start), tokens_per_frame, d_model)
        chunk = rng.uniform(-scale, scale, size=size).astype(np.float32)
        frames.extend(FrameTokens(frame_index=start + j, embeddings=e) for j, e in enumerate(chunk))
    return frames


# one frame of 16 x 256; chunks of 2**15 values raised peak RSS on the
# stream-small benchmark workload by about 3 MiB
_DRAW_CHUNK_VALUES = 2**12
