"""Two-stage training on a synthetic per-frame recall task.

The task: every token row of a frame shows its own symbol (a learnable
embedding row plus noise), and questions of the form "<qmark> <frame-k>"
are answered by the symbol in row 0 of frame k.
Chance is 1/alphabet. Because mean pooling is permutation-invariant, the
carrier embedding alone cannot tell which row held which symbol; row
identity survives only through the carrier's prefill attention over the
raw rows, which is the pathway the KV-inheriting carrier provides and
the embedding-only ablation removes.

Stage 1 trains only the attention adapters and the frame-symbol stub on
carriers-only sequences (no raw frame tokens; carriers sit at the
positions they will occupy when streaming). Stage 2 trains only the
backbone on full sequences under the semantic mask, exactly the layout
the streaming engine produces at inference. Training runs at float64;
deployed weights are float32.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Collection

import numpy as np

from .autodiff import TrainBatch, batch_loss, batch_loss_and_grads
from .carrier import FrameTokens
from .config import ModelConfig
from .engine import StreamSession
from .errors import ConfigError, SelectionError
from .masking import build_dense_layout
from .model import Weights, get_param, iter_params


@dataclass(frozen=True)
class TaskSpec:
    """Synthetic stream-recall task over a small symbol alphabet."""

    frames_per_stream: int = 8
    alphabet: int = 16
    questions_per_stream: int = 8
    noise_scale: float = 0.05
    answer_row: ClassVar[int] = 0  # the token row of a frame that holds the queried symbol

    # token id layout: [0, alphabet) symbols, then one index token per
    # frame slot, then qmark, two system tokens, and a reserved eos
    def idx_token(self, k: int) -> int:
        return self.alphabet + k

    @property
    def qmark_id(self) -> int:
        return self.alphabet + self.frames_per_stream

    @property
    def system_ids(self) -> tuple[int, int]:
        return (self.qmark_id + 1, self.qmark_id + 2)

    @property
    def required_vocab(self) -> int:
        return self.alphabet + self.frames_per_stream + 4

    def prefix(self) -> tuple[int, ...]:
        return (self.qmark_id,)

    def question_len(self) -> int:
        return len(self.prefix()) + 1  # prefix tokens plus the frame-index token

    def text_len(self) -> int:
        return self.questions_per_stream * (self.question_len() + 1)  # + answer

    def validate(self, config: ModelConfig) -> None:
        if self.questions_per_stream < 1 or self.questions_per_stream > self.frames_per_stream:
            raise ConfigError(
                f"{self.questions_per_stream} questions for {self.frames_per_stream} frames"
            )
        if config.vocab_size < self.required_vocab:
            raise ConfigError(
                f"task needs vocab >= {self.required_vocab}, model has {config.vocab_size}"
            )
        s = len(self.system_ids)
        needed = s + self.frames_per_stream * (config.tokens_per_frame + 1) + self.text_len()
        if needed > config.max_positions:
            raise ConfigError(f"task spans {needed} positions, model allows {config.max_positions}")


@dataclass
class StreamPlan:
    """A fully specified stream: per-row symbols, question order, noise."""

    symbols: np.ndarray  # (F, N) symbol per frame and token row
    question_frames: np.ndarray  # (Q,)
    noise: np.ndarray  # (F, N, d) unit normal, unscaled

    def answer(self, frame: int, task: TaskSpec) -> int:
        return int(self.symbols[frame, task.answer_row])


def make_plan(task: TaskSpec, config: ModelConfig, rng: np.random.Generator) -> StreamPlan:
    f, n = task.frames_per_stream, config.tokens_per_frame
    return StreamPlan(
        symbols=rng.integers(0, task.alphabet, size=(f, n)),
        question_frames=rng.permutation(f)[: task.questions_per_stream],
        noise=rng.standard_normal((f, n, config.d_model)),
    )


def materialize_frames(plan: StreamPlan, stub: np.ndarray, task: TaskSpec) -> np.ndarray:
    """(F, N, d) frame-token embeddings: per-row symbol plus scaled noise."""
    return stub[plan.symbols] + plan.noise * task.noise_scale


def frames_for_engine(plan: StreamPlan, stub: np.ndarray, task: TaskSpec) -> list[FrameTokens]:
    frames = materialize_frames(plan, stub, task).astype(np.float32)
    return [FrameTokens(frame_index=i, embeddings=frames[i]) for i in range(frames.shape[0])]


def gen_synthetic_stream(
    task: TaskSpec, config: ModelConfig, seed: int, stub: np.ndarray
) -> tuple[list[FrameTokens], list[int], int]:
    """One stream plus its first question and expected answer token."""
    rng = np.random.default_rng(seed)
    plan = make_plan(task, config, rng)
    k = int(plan.question_frames[0])
    question = list(task.prefix()) + [task.idx_token(k)]
    return frames_for_engine(plan, stub, task), question, plan.answer(k, task)


def init_stub(task: TaskSpec, config: ModelConfig, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(config.d_model)
    return rng.uniform(-scale, scale, size=(task.alphabet, config.d_model)).astype(np.float32)


def build_batch(
    weights: Weights,
    stub: np.ndarray,
    task: TaskSpec,
    plans: list[StreamPlan],
    stage: int,
) -> TrainBatch:
    """Assemble a float64 batch in the stage's sequence layout.

    Stage 1 sequences contain system tokens, carriers only, then the
    question text; carriers are placed at the positions they occupy in a
    streamed full sequence. Stage 2 sequences are the full streamed
    layout with raw frame tokens under the semantic mask.
    """
    config = weights.config
    if stage not in (1, 2):
        raise SelectionError(f"stage must be 1 or 2, got {stage}")
    b = len(plans)
    f, n = task.frames_per_stream, config.tokens_per_frame
    sys_ids = np.array(task.system_ids)
    qlen = task.question_len()

    symbols = np.stack([p.symbols for p in plans])  # (b, F, N)
    noise = np.stack([p.noise for p in plans])  # (b, F, N, d)
    qf = np.stack([p.question_frames for p in plans])  # (b, Q)
    answers = symbols[np.arange(b)[:, None], qf, task.answer_row]  # (b, Q)
    # each question is its prefix and its frame-index token, then the answer
    prefixes = np.broadcast_to(task.prefix(), qf.shape + (qlen - 1,))
    text_ids = np.concatenate([prefixes, task.idx_token(qf)[..., None], answers[..., None]], axis=2)
    text_ids = text_ids.reshape(b, -1)

    # stage 1 is the carriers-only layout of the embedding-only variant
    embeds, positions, spec = build_dense_layout(
        weights.tok_emb[sys_ids],
        stub[symbols] + noise * task.noise_scale,
        weights.tok_emb[text_ids],
        config.carrier_mode,
        "inherited" if stage == 2 else "embedding_only",
    )
    layout = spec.layout
    tok_map = np.full(embeds.shape[:2], -1, dtype=np.int64)
    tok_map[:, : len(sys_ids)] = sys_ids
    tok_map[:, layout.text_start :] = text_ids

    # (batch_idx, seq_idx, symbol, coeff) links, frame by frame
    links: list[tuple[np.ndarray, ...]] = []
    b_idx = np.repeat(np.arange(b), n)
    for t in range(f):
        fstart, cpos = layout.frame_span(t)
        row_symbols = symbols[:, t].reshape(-1)
        if cpos > fstart:
            links.append((b_idx, np.tile(np.arange(fstart, cpos), b), row_symbols, np.ones(b * n)))
        if config.carrier_mode == "mean":
            links.append((b_idx, np.full(b * n, cpos), row_symbols, np.full(b * n, 1.0 / n)))
        else:  # last_token carrier is row N-1 verbatim
            links.append((np.arange(b), np.full(b, cpos), symbols[:, t, -1], np.ones(b)))

    loss_pos = layout.text_start + np.arange(task.questions_per_stream) * (qlen + 1) + (qlen - 1)
    return TrainBatch(
        embeds=embeds,
        positions=positions,
        mask=spec.allow,
        loss_pos=np.broadcast_to(loss_pos, (b, task.questions_per_stream)).copy(),
        targets=answers,
        tok_map=tok_map,
        stub_scatter=tuple(np.concatenate(column) for column in zip(*links)),
    )


def _scatter_rows(index_map: np.ndarray, d_embeds: np.ndarray, nrows: int) -> np.ndarray:
    out = np.zeros((nrows, d_embeds.shape[-1]), dtype=d_embeds.dtype)
    valid = index_map >= 0
    np.add.at(out, index_map[valid], d_embeds[valid])
    return out


def _scatter_stub(
    scatter: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    d_embeds: np.ndarray,
    nrows: int,
) -> np.ndarray:
    b_idx, s_idx, sym, coeff = scatter
    out = np.zeros((nrows, d_embeds.shape[-1]), dtype=d_embeds.dtype)
    np.add.at(out, sym, d_embeds[b_idx, s_idx] * coeff[:, None])
    return out


# ---------------------------------------------------------------------------
# optimizers and the train loop
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    stage: int
    steps: int = 1000
    batch_size: int = 16
    lr: float = 3e-3
    beta2: float = 0.999
    seed: int = 0
    log_every: int = 50
    target_loss: float | None = None  # early stop once reached
    beta1: ClassVar[float] = 0.9
    eps: ClassVar[float] = 1e-8


class Optimizer:
    """Adam over the parameters handed to `step`."""

    def __init__(self, cfg: TrainConfig):
        self.cfg = cfg
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """arr -= lr * mhat / (sqrt(vhat) + eps), with the moments updated first.

        Evaluated in place in the same order as that formula, so the bits
        match, with two scratch arrays per parameter.
        """
        cfg = self.cfg
        self.t += 1
        m_corr = 1 - cfg.beta1**self.t
        v_corr = 1 - cfg.beta2**self.t
        for path, arr in params.items():
            g = grads[path]
            m = self.m.setdefault(path, np.zeros_like(arr))
            v = self.v.setdefault(path, np.zeros_like(arr))
            m *= cfg.beta1
            step = (1 - cfg.beta1) * g
            m += step
            v *= cfg.beta2
            np.multiply(1 - cfg.beta2, g, out=step)
            step *= g
            v += step
            np.divide(m, m_corr, out=step)
            step *= cfg.lr
            denom = v / v_corr
            np.sqrt(denom, out=denom)
            denom += cfg.eps
            step /= denom
            arr -= step


def all_param_paths(weights: Weights) -> list[str]:
    return [p for p, _ in iter_params(weights)] + ["stub"]


def trainable_paths(weights: Weights, stage: int) -> list[str]:
    """The stage's parameter group: stage 1 trains the adapters and the
    stub, stage 2 the backbone."""
    if stage == 1:
        return [p for p, _ in iter_params(weights) if ".adapters." in p] + ["stub"]
    if stage == 2:
        return [p for p, _ in iter_params(weights) if ".adapters." not in p]
    raise SelectionError(f"stage must be 1 or 2, got {stage}")


def _assemble_grads(
    weights: Weights,
    stub: np.ndarray,
    batch: TrainBatch,
    grads: dict,
    d_embeds: np.ndarray,
    wanted: Collection[str] | None = None,
) -> dict[str, np.ndarray]:
    """Add the tok_emb and stub scatters of `d_embeds` to `grads`, each
    only if `wanted` names it (default: both)."""
    if wanted is None or "tok_emb" in wanted:
        grads["tok_emb"] = _scatter_rows(batch.tok_map, d_embeds, weights.config.vocab_size)
    if wanted is None or "stub" in wanted:
        grads["stub"] = _scatter_stub(batch.stub_scatter, d_embeds, stub.shape[0])
    return grads


def _run_training(
    weights: Weights, task: TaskSpec, cfg: TrainConfig, stub: np.ndarray
) -> tuple[Weights, np.ndarray, list[dict]]:
    config = weights.config
    task.validate(config)
    w64 = weights.astype(np.float64)
    stub64 = stub.astype(np.float64)
    paths = trainable_paths(w64, cfg.stage)
    params = {p: (stub64 if p == "stub" else get_param(w64, p)) for p in paths}
    opt = Optimizer(cfg)
    rng = np.random.default_rng(cfg.seed)
    metrics: list[dict] = []

    for step in range(cfg.steps):
        plans = [make_plan(task, config, rng) for _ in range(cfg.batch_size)]
        batch = build_batch(w64, stub64, task, plans, cfg.stage)
        # the stage's parameter group is all the step computes gradients for
        loss, grads, d_embeds, acc = batch_loss_and_grads(w64, batch, wanted=paths)
        _assemble_grads(w64, stub64, batch, grads, d_embeds, wanted=paths)
        gnorm = math.sqrt(sum(float((grads[p] ** 2).sum()) for p in paths))
        opt.step(params, grads)
        done = step == cfg.steps - 1 or (cfg.target_loss is not None and loss < cfg.target_loss)
        if step % cfg.log_every == 0 or done:
            metrics.append(
                {"step": step, "loss": loss, "grad_norm": gnorm, "accuracy": acc}
            )
        if done:
            break

    out_stub = stub64.astype(np.float32) if "stub" in params else stub
    return w64.astype(np.float32), out_stub, metrics


def train_stage1(
    weights: Weights, task: TaskSpec, cfg: TrainConfig, stub: np.ndarray | None = None
) -> tuple[Weights, np.ndarray, list[dict]]:
    """Adapter + stub training on carriers-only sequences.

    Base weights come back bitwise identical; only adapter factors and
    the frame-symbol stub move.
    """
    if weights.config.adapter_rank < 1:
        raise ConfigError("stage 1 trains adapters; configure adapter_rank >= 1")
    if cfg.stage != 1:
        raise ConfigError(f"stage-1 trainer got a stage-{cfg.stage} config")
    if stub is None:
        stub = init_stub(task, weights.config, cfg.seed)
    return _run_training(weights, task, cfg, stub)


def train_stage2(
    weights: Weights, task: TaskSpec, cfg: TrainConfig, stub: np.ndarray
) -> tuple[Weights, np.ndarray, list[dict]]:
    """Backbone training on full frame sequences under the semantic mask.

    Adapters stay attached and frozen; the stub is used to materialize
    frames but comes back the exact object that was passed in.
    """
    if cfg.stage != 2:
        raise ConfigError(f"stage-2 trainer got a stage-{cfg.stage} config")
    return _run_training(weights, task, cfg, stub)


# ---------------------------------------------------------------------------
# evaluation through the streaming engine
# ---------------------------------------------------------------------------


def evaluate_recall(
    weights: Weights,
    stub: np.ndarray,
    task: TaskSpec,
    config: ModelConfig,
    streams: int,
    seed: int,
    questions: int | None = None,
) -> float:
    """Accuracy of greedy one-token answers over held-out streams.

    Each stream is ingested frame by frame through a fresh session, then
    asked `questions` questions (default: all of the plan's questions,
    sequentially, with answers retained as dialogue, matching the
    training layout).
    """
    rng = np.random.default_rng(seed)
    correct = 0
    total = 0
    for _ in range(streams):
        plan = make_plan(task, config, rng)
        frames = frames_for_engine(plan, stub, task)
        session = StreamSession(config, weights, system_tokens=list(task.system_ids))
        for frame in frames:
            session.ingest_frame(frame)
        nq = len(plan.question_frames) if questions is None else questions
        for j in range(nq):
            k = int(plan.question_frames[j])
            out = session.ask(list(task.prefix()) + [task.idx_token(k)], max_new=1)
            correct += int(out.tokens[0] == plan.answer(k, task))
            total += 1
        session.close()
    return correct / total


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


def grad_check(
    weights: Weights,
    task: TaskSpec,
    stub: np.ndarray | None = None,
    n_coords: int = 220,
    h: float = 1e-5,
    seed: int = 0,
) -> dict:
    """Backprop vs central finite differences at float64.

    Samples coordinates from every parameter group (each layer weight,
    each adapter factor, token/position tables, unembedding, stub) and
    returns the max relative error `|a-b| / max(1e-8, |a|+|b|)` overall
    and per group. Adapter `b` factors are randomized first so adapter
    gradient paths are exercised rather than identically zero.
    """
    config = weights.config
    rng = np.random.default_rng(seed)
    w64 = weights.astype(np.float64)
    if stub is None:
        stub = init_stub(task, config, seed)
    stub64 = stub.astype(np.float64)
    # zero-init b factors would zero the a-factor gradients; draw b large
    # enough that finite-difference roundoff stays well below the signal
    for lw in w64.layers:
        if lw.adapters is not None:
            for name, (a, b) in lw.adapters.items():
                lw.adapters[name] = (a, rng.normal(0.0, 0.4, size=b.shape))

    plans = [make_plan(task, config, rng) for _ in range(2)]

    def loss_now() -> float:
        return batch_loss(w64, build_batch(w64, stub64, task, plans, stage=2))

    batch = build_batch(w64, stub64, task, plans, stage=2)
    loss, grads, d_embeds, _ = batch_loss_and_grads(w64, batch)
    _assemble_grads(w64, stub64, batch, grads, d_embeds)

    paths = all_param_paths(w64)
    per_path = max(3, -(-n_coords // len(paths)))  # ceil division
    worst = 0.0
    per_group: dict[str, float] = {}
    checked = 0
    for path in paths:
        arr = stub64 if path == "stub" else get_param(w64, path)
        flat = arr.reshape(-1)
        count = min(per_path, flat.size)
        coords = rng.choice(flat.size, size=count, replace=False)
        group_worst = 0.0
        for c in coords:
            keep = flat[c]
            flat[c] = keep + h
            up = loss_now()
            flat[c] = keep - h
            down = loss_now()
            flat[c] = keep
            fd = (up - down) / (2 * h)
            bp = float(grads[path].reshape(-1)[c])
            rel = abs(fd - bp) / max(1e-8, abs(fd) + abs(bp))
            group_worst = max(group_worst, rel)
            checked += 1
        per_group[path] = group_worst
        worst = max(worst, group_worst)
    return {"max_rel_err": worst, "per_group": per_group, "coords_checked": checked}
