"""Model configuration and its validation rules."""

from __future__ import annotations

from dataclasses import dataclass, asdict

from .errors import ConfigError

CARRIER_MODES = ("mean", "last_token")
CARRIER_KV_MODES = ("inherited", "embedding_only")
EVICTION_RULES = ("adjacent_pairs", "vs_incoming")
_INT_FIELDS = (
    "layers", "heads", "d_model", "ff_dim", "vocab_size", "max_positions",
    "tokens_per_frame", "memory_capacity", "adapter_rank", "eos_token_id",
)


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions and mode switches for the toy decoder backbone.

    `carrier_mode`, `carrier_kv_mode` and `memory_enabled` select between
    the full mechanism and its ablated variants; `eviction_rule` picks the
    pairing scheme used when the memory bank overflows.
    """

    layers: int = 2
    heads: int = 2
    d_model: int = 32
    ff_dim: int = 64
    vocab_size: int = 64
    max_positions: int = 4096
    tokens_per_frame: int = 8
    memory_capacity: int = 64
    carrier_mode: str = "mean"
    carrier_kv_mode: str = "inherited"
    eviction_rule: str = "adjacent_pairs"
    memory_enabled: bool = True
    adapter_rank: int = 0
    eos_token_id: int = -1  # -1: decoding never stops early

    def __post_init__(self) -> None:
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an int, got {value!r}")
        if not isinstance(self.memory_enabled, bool):
            raise ConfigError(f"memory_enabled must be a bool, got {self.memory_enabled!r}")
        if self.layers < 1 or self.heads < 1 or self.d_model < 1:
            raise ConfigError("layers, heads and d_model must all be >= 1")
        if self.d_model % self.heads != 0:
            raise ConfigError(f"d_model={self.d_model} not divisible by heads={self.heads}")
        if self.ff_dim < 1 or self.vocab_size < 1 or self.max_positions < 1:
            raise ConfigError("ff_dim, vocab_size and max_positions must all be >= 1")
        if self.tokens_per_frame < 1:
            raise ConfigError("tokens_per_frame must be >= 1")
        if self.memory_capacity < 1:
            raise ConfigError("memory_capacity must be >= 1")
        if self.carrier_mode not in CARRIER_MODES:
            raise ConfigError(f"carrier_mode must be one of {CARRIER_MODES}")
        if self.carrier_kv_mode not in CARRIER_KV_MODES:
            raise ConfigError(f"carrier_kv_mode must be one of {CARRIER_KV_MODES}")
        if self.eviction_rule not in EVICTION_RULES:
            raise ConfigError(f"eviction_rule must be one of {EVICTION_RULES}")
        if self.adapter_rank < 0:
            raise ConfigError("adapter_rank must be >= 0")
        if not (-1 <= self.eos_token_id < self.vocab_size):
            raise ConfigError("eos_token_id out of vocabulary range")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.heads

    def compatible_with(self, other: "ModelConfig") -> bool:
        """True when both configs imply the same weight shapes.

        Behavior switches (carrier/eviction modes, capacity) may differ;
        that is how one set of trained weights is evaluated under ablated
        inference settings.
        """
        shape_fields = (
            "layers", "heads", "d_model", "ff_dim",
            "vocab_size", "max_positions", "tokens_per_frame", "adapter_rank",
        )
        return all(getattr(self, f) == getattr(other, f) for f in shape_fields)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown ModelConfig fields: {sorted(unknown)}")
        return cls(**d)
