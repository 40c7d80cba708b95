"""Span recorder for the traced run, and the per-layer metrics it yields.

The recorder wraps the public entry points of each carrierstream module
by rebinding them at the attribute their caller looks up (for example
`carrierstream.engine.forward_step`, which is the name `StreamSession`
calls). Nothing inside the library changes. A span is recorded only
while the recorder is active, which the harness arranges for exactly
the benchmark's timed calls; every span keeps its name, start, end,
parent span and root-operation id in flat arrays, in memory, until the
run writes them out.

Self time is a span's duration minus the durations of its child spans.
Flops and K/V bytes are computed from the call's tensor sizes with
`step_flops`'s convention; they are not measured.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from array import array

import numpy as np

from carrierstream import autodiff, carrier, engine, frames_io, instrumentation, model, training

PHASE_SETUP, PHASE_WORK = 0, 1


def _step_sizes(args, kwargs):
    """forward_step(weights, cache, new_embeddings, ...): (m new tokens, n keys)."""
    m = args[2].shape[0]
    return m, len(args[1]) + m


def _attention_sizes(args, kwargs):
    """attention_forward(q, cached_k, cached_v, new_k, new_v, mask, heads)."""
    return args[0].shape[0], args[1].shape[0] + args[3].shape[0]


# (owner, attribute, span name, size extractor). The owner is the module or
# class through which the caller reaches the function.
TARGETS = [
    (engine.StreamSession, "ingest_frame", "engine.ingest_frame", None),
    (engine.StreamSession, "ask", "engine.ask", None),
    (engine.StreamSession, "reset_dialogue", "engine.reset_dialogue", None),
    (engine, "forward_step", "model.forward_step", _step_sizes),
    (engine, "build_streaming_mask", "masking.build_streaming_mask", None),
    (carrier.MemoryBank, "insert", "carrier.MemoryBank.insert", None),
    (carrier, "cosine_similarity", "numerics.cosine_similarity", None),
    (model.KvCache, "append", "model.KvCache.append", None),
    (model.KvCache, "delete_origin", "model.KvCache.delete_origin", None),
    (model.KvCache, "delete_tag", "model.KvCache.delete_tag", None),
    (model.KvCache, "entry_kv", "model.KvCache.entry_kv", None),
    (model, "embed_positions", "model.embed_positions", None),
    (model, "attention_forward", "model.attention_forward", _attention_sizes),
    (model, "softmax_rows", "numerics.softmax_rows", None),
    (model, "layer_norm", "numerics.layer_norm", None),
    (model, "gelu", "numerics.gelu", None),
    (model, "init_model", "model.init_model", None),
    (frames_io, "make_random_frames", "frames_io.make_random_frames", None),
    (autodiff, "forward_train", "autodiff.forward_train", None),
    (autodiff, "backward", "autodiff.backward", None),
    (autodiff, "cross_entropy", "autodiff.cross_entropy", None),
    (autodiff, "gelu", "numerics.gelu", None),
    (training, "make_plan", "training.make_plan", None),
    (training, "build_batch", "training.build_batch", None),
    (training.Optimizer, "step", "training.Optimizer.step", None),
    (training, "evaluate_recall", "training.evaluate_recall", None),
    (training, "train_stage1", "training.train_stage", None),
    (training, "train_stage2", "training.train_stage", None),
]

# spans whose self time is reported per root operation as `<name>.self_us`;
# forward_step's is split into prefill and decode, and set-up spans are
# reported whole, in ms
SELF_TIME_SPANS = [
    name for name in dict.fromkeys(name for _, _, name, _ in TARGETS)
    if name not in ("model.forward_step", "model.init_model", "frames_io.make_random_frames")
]
SUBTREE_MODULES = ("carrier", "model", "masking", "autodiff")


class SpanRecorder:
    """Wraps the TARGETS and records a span per call while `active`."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.phase_of = array("b")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.root = array("q")
        self.m = array("q")
        self.n = array("q")
        self.active = False
        self.phase = PHASE_WORK
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for owner, attr, name, sizes in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, sizes))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name: str, sizes):
        span_id = self._ids.setdefault(name, len(self._ids))
        if span_id == len(self.names):
            self.names.append(name)
        rec = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            idx = len(rec.start)
            stack = rec._stack
            parent = stack[-1] if stack else -1
            m, n = sizes(args, kwargs) if sizes is not None else (0, 0)
            rec.name_id.append(span_id)
            rec.phase_of.append(rec.phase)
            rec.parent.append(parent)
            rec.root.append(rec.root[parent] if parent >= 0 else idx)
            rec.m.append(m)
            rec.n.append(n)
            rec.end.append(0)
            stack.append(idx)
            rec.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end[idx] = clock()
                stack.pop()

        return wrapper

    def write(self, path: str) -> None:
        """All spans as one gzipped JSON object of parallel columns."""
        payload = {
            "names": self.names,
            "phases": {"setup": PHASE_SETUP, "work": PHASE_WORK},
            "columns": {
                key: getattr(self, key).tolist()
                for key in ("name_id", "phase_of", "start", "end", "parent", "root", "m", "n")
            },
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(payload, fh)


class Spans:
    """Numpy view of one phase of a recording, with self times."""

    def __init__(self, rec: SpanRecorder, phase: int):
        keep = np.frombuffer(rec.phase_of, dtype=np.int8) == phase
        index = np.flatnonzero(keep)
        remap = np.full(len(keep) + 1, -1, dtype=np.int64)  # slot -1 maps a root's parent
        remap[index] = np.arange(len(index))
        self.names = rec.names
        self.name_id = np.frombuffer(rec.name_id, dtype=np.int32)[index]
        start = np.frombuffer(rec.start, dtype=np.int64)[index]
        self.dur = np.frombuffer(rec.end, dtype=np.int64)[index] - start
        self.parent = remap[np.frombuffer(rec.parent, dtype=np.int64)[index]]
        self.m = np.frombuffer(rec.m, dtype=np.int64)[index]
        self.n = np.frombuffer(rec.n, dtype=np.int64)[index]
        child = np.zeros(len(index), dtype=np.int64)
        nested = self.parent >= 0
        np.add.at(child, self.parent[nested], self.dur[nested])
        self.self_ns = self.dur - child

    def named(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.name_id), dtype=bool)
        return self.name_id == self.names.index(name)

    def count(self, name: str) -> int:
        return int(self.named(name).sum())

    def count_roots(self, name: str) -> int:
        return int((self.named(name) & (self.parent < 0)).sum())

    def self_ns_of(self, name: str) -> int:
        return int(self.self_ns[self.named(name)].sum())

    def dur_ns_of(self, name: str) -> int:
        return int(self.dur[self.named(name)].sum())

    def root_ns(self) -> int:
        return int(self.dur[self.parent < 0].sum())

    def subtree_self_ns(self, module: str) -> int:
        """Self time of every span of `module` and of everything it calls."""
        of_module = np.array([n.split(".", 1)[0] == module for n in self.names], dtype=bool)
        inside = of_module[self.name_id].tolist()
        for i, p in enumerate(self.parent.tolist()):  # a parent precedes its children
            if p >= 0 and inside[p]:
                inside[i] = True
        return int(self.self_ns[np.array(inside, dtype=bool)].sum())


def layer_metrics(rec: SpanRecorder, workload, overhead_share: float,
                  retained_kib: float) -> tuple[dict, int]:
    """Per-layer metrics of a traced run, each per root operation of the
    workload (steady ingest, dialogue turn or optimizer step) unless its
    unit says otherwise, and the number of root operations."""
    work = Spans(rec, PHASE_WORK)
    setup = Spans(rec, PHASE_SETUP)
    ops = max(workload.root_count(work), 1)
    cfg = workload.config
    out: dict[str, float] = {}

    for name in SELF_TIME_SPANS:
        out[f"{name}.self_us"] = work.self_ns_of(name) / 1000.0 / ops

    step = work.named("model.forward_step")
    prefill = step & (work.m > 1)
    out["model.forward_step.prefill.self_us"] = int(work.self_ns[prefill].sum()) / 1000.0 / ops
    out["model.forward_step.decode.self_us"] = int(work.self_ns[step & ~prefill].sum()) / 1000.0 / ops
    out["model.forward_step.calls"] = int(step.sum()) / ops
    out["numerics.cosine_similarity.calls"] = work.count("numerics.cosine_similarity") / ops

    step_flops = sum(instrumentation.step_flops(cfg, int(m), int(n))
                     for m, n in zip(work.m[step], work.n[step]))
    out["model.forward_step.gflops_s"] = step_flops / max(work.dur_ns_of("model.forward_step"), 1)
    attn = work.named("model.attention_forward")
    am, an = work.m[attn].astype(np.float64), work.n[attn].astype(np.float64)
    attn_flops = float((4 * am * an * cfg.d_model + 4 * cfg.heads * am * an).sum())
    out["model.attention_forward.gflops_s"] = attn_flops / max(work.dur_ns_of("model.attention_forward"), 1)
    kv_read = cfg.layers * work.n[step].astype(np.float64) * 2 * cfg.d_model * 4
    out["model.kv_read_bytes_per_step"] = float(kv_read.mean()) if kv_read.size else 0.0

    stats = workload.trace_stats
    out["model.kv_bytes"] = float(np.mean(stats["kv_bytes"])) if stats["kv_bytes"] else 0.0
    out["engine.positions_used"] = float(max(stats["positions"], default=0))
    out["engine.retained_kib"] = retained_kib
    op_flops = float(np.mean(stats["flops"])) if stats["flops"] else 0.0  # FlopCounter, per root op
    ingest = workload.op == "ingest_frame"
    out["instrumentation.flops_per_ingest"] = op_flops if ingest else 0.0
    out["instrumentation.flops_per_turn"] = 0.0 if ingest else op_flops

    out["carrier.evictions"] = workload.evictions / max(len(workload.lat_ns), 1)
    out["carrier.victim_match_share"] = (
        workload.victims_matched / workload.evictions if workload.evictions else 1.0)

    out["model.init_model.ms"] = setup.dur_ns_of("model.init_model") / 1e6
    out["frames_io.make_random_frames.ms"] = setup.dur_ns_of("frames_io.make_random_frames") / 1e6

    root_ns = max(work.root_ns(), 1)
    for module in SUBTREE_MODULES:
        out[f"{module}.subtree_share"] = work.subtree_self_ns(module) / root_ns
    out["trace.root_us"] = root_ns / 1000.0 / ops
    self_sum = sum(v for k, v in out.items() if k.endswith(".self_us"))
    out["trace.accounted_share"] = self_sum / out["trace.root_us"]
    out["trace.overhead_share"] = overhead_share
    return out, ops
