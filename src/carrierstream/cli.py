"""Command-line front end.

Subcommands: simulate, ask, train, bench, inspect-attn, make-frames.
Usage errors exit 2 (argparse); runtime failures exit 1 with a one-line
diagnostic on stderr.

The optional --config JSON may carry four sections, all optional:
  {"model": {...}, "task": {...},
   "train": {"stage1": {...}, "stage2": {...}},
   "system_tokens": [ids], "seed": 0}
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys

import numpy as np

from .config import ModelConfig
from .engine import StreamSession
from .errors import CarrierStreamError, ConfigError
from .frames_io import load_frames, make_random_frames, save_frames
from .instrumentation import (
    AttentionCapture,
    BenchSchedule,
    CaptureFilter,
    bench_serving,
    record_attention,
    write_attention_csv,
    write_bench_json,
)
from .model import init_model, load_checkpoint, save_checkpoint
from .training import (
    TaskSpec,
    TrainConfig,
    frames_for_engine,
    gen_synthetic_stream,
    init_stub,
    make_plan,
    train_stage1,
    train_stage2,
)

_CARRIER_MODE = {"mean": "mean", "last": "last_token"}
_KV_MODE = {"inherited": "inherited", "embedding-only": "embedding_only"}
_EVICTION = {"adjacent": "adjacent_pairs", "vs-incoming": "vs_incoming"}


@dataclasses.dataclass
class RunConfig:
    model: ModelConfig
    task: TaskSpec
    stage1: TrainConfig
    stage2: TrainConfig
    system_tokens: list[int]
    seed: int


def _build(cls, data: dict, what: str, **forced):
    fields = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - fields
    if unknown:
        raise ConfigError(f"unknown {what} fields: {sorted(unknown)}")
    merged = dict(data)
    merged.update(forced)
    return cls(**merged)


def load_run_config(path: str | None) -> RunConfig:
    data: dict = {}
    if path is not None:
        with open(path) as fh:
            data = json.load(fh)
        unknown = set(data) - {"model", "task", "train", "system_tokens", "seed"}
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    model = ModelConfig.from_dict(data.get("model", {}))
    task_data = data.get("task", {})
    if "question_prefix" in task_data and task_data["question_prefix"] is not None:
        task_data["question_prefix"] = tuple(task_data["question_prefix"])
    task = _build(TaskSpec, task_data, "task")
    train = data.get("train", {})
    stage1 = _build(TrainConfig, train.get("stage1", {}), "train.stage1", stage=1)
    stage2 = _build(TrainConfig, train.get("stage2", {}), "train.stage2", stage=2)
    system_tokens = data.get("system_tokens")
    if system_tokens is None:
        system_tokens = list(task.system_ids)
    return RunConfig(
        model=model,
        task=task,
        stage1=stage1,
        stage2=stage2,
        system_tokens=list(system_tokens),
        seed=int(data.get("seed", 0)),
    )


def _load_run(args: argparse.Namespace) -> RunConfig:
    """The run config from --config, with --seed (if given) in place of its seed."""
    run = load_run_config(args.config)
    if args.seed is not None:
        run = dataclasses.replace(run, seed=args.seed)
    return run


def _apply_overrides(model: ModelConfig, args: argparse.Namespace) -> ModelConfig:
    changes: dict = {}
    if getattr(args, "memory_size", None) is not None:
        changes["memory_capacity"] = args.memory_size
    if getattr(args, "carrier_mode", None) is not None:
        changes["carrier_mode"] = _CARRIER_MODE[args.carrier_mode]
    if getattr(args, "kv_mode", None) is not None:
        changes["carrier_kv_mode"] = _KV_MODE[args.kv_mode]
    if getattr(args, "eviction", None) is not None:
        changes["eviction_rule"] = _EVICTION[args.eviction]
    if getattr(args, "no_memory", False):
        changes["memory_enabled"] = False
    return dataclasses.replace(model, **changes) if changes else model


def _add_common(p: argparse.ArgumentParser, ablations: bool = True) -> None:
    p.add_argument("--config", help="run configuration JSON")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    if ablations:
        p.add_argument("--memory-size", type=int, help="carrier bank capacity")
        p.add_argument("--carrier-mode", choices=sorted(_CARRIER_MODE))
        p.add_argument("--kv-mode", choices=sorted(_KV_MODE))
        p.add_argument("--eviction", choices=sorted(_EVICTION))
        p.add_argument("--no-memory", action="store_true", help="buffer frames, sample at ask time")


def _model_weights_stub(args: argparse.Namespace, run: RunConfig):
    """(model, weights, frame-symbol table) from --weights, or freshly initialized."""
    if args.weights:
        ckpt = load_checkpoint(args.weights)
        model = _apply_overrides(ckpt.weights.config, args)
        stub = ckpt.stub if ckpt.stub is not None else init_stub(run.task, model, run.seed)
        return model, ckpt.weights, stub
    model = _apply_overrides(run.model, args)
    return model, init_model(model, run.seed), init_stub(run.task, model, run.seed)


def _load_or_make_frames(args: argparse.Namespace, run: RunConfig):
    if getattr(args, "frames", None):
        return load_frames(args.frames, run.model)
    count = getattr(args, "count", None) or 32
    return make_random_frames(count, run.model.tokens_per_frame, run.model.d_model, run.seed + 1)


def _cmd_make_frames(args: argparse.Namespace) -> int:
    run = _load_run(args)
    frames = make_random_frames(
        args.count, run.model.tokens_per_frame, run.model.d_model, run.seed
    )
    save_frames(args.out, frames)
    print(f"wrote {len(frames)} frames to {args.out}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    run = _load_run(args)
    model = _apply_overrides(run.model, args)
    weights = init_model(model, run.seed)
    frames = _load_or_make_frames(args, run)
    session = StreamSession(model, weights, run.system_tokens, trace_path=args.out)
    evictions = 0
    for frame in frames:
        report = session.ingest_frame(frame)
        evictions += report.evicted is not None
    footprint = session.kv_footprint()
    session.close()
    print(
        json.dumps(
            {
                "frames": len(frames),
                "bank_size": len(session.bank),
                "evictions": evictions,
                "kv_bytes": footprint["bytes"],
                "trace": args.out,
            }
        )
    )
    return 0


def _cmd_ask(args: argparse.Namespace) -> int:
    run = _load_run(args)
    model, weights, stub = _model_weights_stub(args, run)

    if args.frames:
        frames = load_frames(args.frames, model)
        default_k = min(len(frames), run.task.frames_per_stream) - 1
        k = args.ask_frame if args.ask_frame is not None else default_k
        expected = None
    else:
        plan = make_plan(run.task, model, np.random.default_rng(run.seed))
        frames = frames_for_engine(plan, stub, run.task)
        k = args.ask_frame if args.ask_frame is not None else int(plan.question_frames[0])
        expected = plan.answer(k, run.task) if 0 <= k < len(plan.symbols) else None
    if not 0 <= k < run.task.frames_per_stream:
        raise ConfigError(
            f"--ask-frame {k} outside the task's {run.task.frames_per_stream} frame slots"
        )
    question = list(run.task.prefix()) + [run.task.idx_token(k)]

    session = StreamSession(model, weights, run.system_tokens)
    for frame in frames:
        session.ingest_frame(frame)
    out = session.ask(question, max_new=args.max_new)
    session.close()
    print(
        json.dumps(
            {
                "question": question,
                "generated": out.tokens,
                "expected": expected,
                "prefill_us": out.prefill_us,
                "decode_us_per_token": out.decode_us_per_token,
            }
        )
    )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    run = _load_run(args)
    model = run.model
    rows: list[dict] = []

    if args.stage in ("1", "both"):
        weights = init_model(model, run.seed)
        stub = init_stub(run.task, model, run.seed)
    else:
        if not args.weights:
            raise ConfigError("--stage 2 needs --weights with a stage-1 checkpoint")
        ckpt = load_checkpoint(args.weights)
        weights, stub = ckpt.weights, ckpt.stub
        model = weights.config
        if stub is None:
            raise ConfigError("checkpoint has no frame-symbol table; train stage 1 first")

    if args.stage in ("1", "both"):
        cfg1 = dataclasses.replace(run.stage1, seed=run.seed)
        weights, stub, metrics = train_stage1(weights, run.task, cfg1, stub)
        rows += [{"stage": 1, **m} for m in metrics]
        print(f"stage 1: {len(metrics)} logged steps, final loss {metrics[-1]['loss']:.4f}")
    if args.stage in ("2", "both"):
        cfg2 = dataclasses.replace(run.stage2, seed=run.seed + 1)
        weights, stub, metrics = train_stage2(weights, run.task, cfg2, stub)
        rows += [{"stage": 2, **m} for m in metrics]
        print(f"stage 2: {len(metrics)} logged steps, final loss {metrics[-1]['loss']:.4f}")

    if args.out:
        save_checkpoint(args.out, weights, stub)
        print(f"checkpoint written to {args.out}")
    if args.metrics:
        with open(args.metrics, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["stage", "step", "loss", "grad_norm", "accuracy"])
            writer.writeheader()
            writer.writerows(rows)
        print(f"metrics written to {args.metrics}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    run = _load_run(args)
    model = _apply_overrides(run.model, args)
    points: tuple[int, ...] = ()
    if args.ask_at:
        points = tuple(int(x) for x in args.ask_at.split(","))
    schedule = BenchSchedule(
        frames=args.count,
        question_points=points,
        question_ids=tuple(run.system_tokens[:1]) or (0,),
        max_new=args.max_new,
    )
    summary = bench_serving(model, schedule, run.seed).summary()
    write_bench_json(args.out, summary)
    print(json.dumps({"frames": summary["frames"], "out": args.out}))
    return 0


def _cmd_inspect_attn(args: argparse.Namespace) -> int:
    run = _load_run(args)
    model, weights, stub = _model_weights_stub(args, run)
    if args.frames:
        frames = load_frames(args.frames, model)
        k = min(len(frames), run.task.frames_per_stream) - 1
        question = list(run.task.prefix()) + [run.task.idx_token(k)]
    else:
        frames, question, _ = gen_synthetic_stream(run.task, model, run.seed, stub)
    capture = AttentionCapture(CaptureFilter(query_tags=("text",)))
    session = StreamSession(model, weights, run.system_tokens, capture=capture)
    for frame in frames:
        session.ingest_frame(frame)
    session.ask(question, max_new=args.max_new)
    session.close()
    rows = write_attention_csv(args.out, record_attention(session), per_head=args.per_head)
    print(f"wrote {rows} attention rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carrierstream",
        description="Streaming inference with one carrier token per frame and bounded KV memory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-frames", help="write a synthetic frame file")
    _add_common(p, ablations=False)
    p.add_argument("--count", type=int, default=32)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_make_frames)

    p = sub.add_parser("simulate", help="stream frames and emit a trace")
    _add_common(p)
    p.add_argument("--frames", help="frame file (default: synthetic)")
    p.add_argument("--count", type=int, default=None, help="synthetic frame count")
    p.add_argument("--out", help="trace JSONL path")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("ask", help="stream frames, then answer one question")
    _add_common(p)
    p.add_argument("--frames", help="frame file (default: synthetic task stream)")
    p.add_argument("--weights", help="checkpoint to load")
    p.add_argument("--ask-frame", type=int, default=None, help="frame slot to ask about")
    p.add_argument("--max-new", type=int, default=1)
    p.set_defaults(fn=_cmd_ask)

    p = sub.add_parser("train", help="run the two-stage trainer")
    _add_common(p, ablations=False)
    p.add_argument("--stage", choices=("1", "2", "both"), default="both")
    p.add_argument("--weights", help="input checkpoint (stage 2 alone)")
    p.add_argument("--out", help="checkpoint output path")
    p.add_argument("--metrics", help="metrics CSV output path")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("bench", help="measure ingest/ask latency and flops")
    _add_common(p)
    p.add_argument("--count", type=int, default=200, help="frames to stream")
    p.add_argument("--ask-at", help="comma-separated frame indices to ask after")
    p.add_argument("--max-new", type=int, default=4)
    p.add_argument("--out", required=True, help="summary JSON path")
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("inspect-attn", help="export averaged attention as CSV")
    _add_common(p)
    p.add_argument("--frames", help="frame file (default: synthetic task stream)")
    p.add_argument("--weights", help="checkpoint to load")
    p.add_argument("--max-new", type=int, default=4)
    p.add_argument("--per-head", action="store_true")
    p.add_argument("--out", required=True, help="CSV path")
    p.set_defaults(fn=_cmd_inspect_attn)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CarrierStreamError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
